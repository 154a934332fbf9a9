package poseidon

import (
	"context"
	"sync"
	"testing"
)

// fuzzDB lazily opens one shared DRAM database for FuzzPrepare: parsing
// and planning are read-only over the schema, so a single instance keeps
// per-input cost at prepare-time only.
var fuzzDB = struct {
	once sync.Once
	db   *DB
	err  error
}{}

func sharedFuzzDB() (*DB, error) {
	fuzzDB.once.Do(func() {
		db, err := Open(Config{Mode: DRAM, PoolSize: 16 << 20})
		if err != nil {
			fuzzDB.err = err
			return
		}
		seed := `CREATE (a:Person {id: 1, name: 'ada', age: 36})`
		if _, err := db.CypherCtx(context.Background(), seed, nil); err != nil {
			fuzzDB.err = err
			return
		}
		if err := db.CreateIndex("Person", "id", HybridIndex); err != nil {
			fuzzDB.err = err
			return
		}
		fuzzDB.db = db
	})
	return fuzzDB.db, fuzzDB.err
}

// FuzzPrepare pushes arbitrary source through the full prepare pipeline
// (parse, plan, bind to the engine, statement-cache insert). Any input
// may be rejected with an error; none may panic.
func FuzzPrepare(f *testing.F) {
	for _, src := range []string{
		`MATCH (p:Person) RETURN p.name`,
		`MATCH (p:Person {id: $id}) RETURN p.name, p.age`,
		`MATCH (p:Person {id: 1})-[:knows]->(f) RETURN f.name`,
		`MATCH (p:Person) WHERE p.age > $min RETURN p.name ORDER BY p.age DESC LIMIT 5`,
		`MATCH (p:Person)-[:knows]->(f) RETURN COUNT(*)`,
		`CREATE (x:Person {id: 2, name: 'eve'})`,
		`MATCH (p:Person {id: 1}) SET p.age = $age`,
		`MATCH (p:Person {id: 1}) DETACH DELETE p`,
		`MATCH (p:Person RETURN p`,
		`RETURN`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		db, err := sharedFuzzDB()
		if err != nil {
			t.Skipf("shared fuzz db unavailable: %v", err)
		}
		st, err := db.Prepare(src)
		if err == nil && st == nil {
			t.Fatalf("Prepare(%q) = nil statement, nil error", src)
		}
	})
}
