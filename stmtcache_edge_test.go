package poseidon

import (
	"context"
	"strings"
	"testing"
)

// Edge cases at the seams of the shared prepared-statement cache: the
// cache may drop an entry at any time (CreateIndex purge, LRU eviction),
// but statements already handed out must keep working — including ones
// currently driving a streaming cursor.

func newEdgeDB(t *testing.T, cacheSize int) *DB {
	t.Helper()
	db, err := Open(Config{Mode: DRAM, PoolSize: 16 << 20, StmtCacheSize: cacheSize})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	for _, src := range []string{
		`CREATE (a:Person {id: 1, name: 'ada', age: 36})`,
		`CREATE (b:Person {id: 2, name: 'bob', age: 25})`,
		`CREATE (c:Person {id: 3, name: 'cleo', age: 41})`,
	} {
		if _, err := db.CypherCtx(context.Background(), src, nil); err != nil {
			t.Fatalf("seed %q: %v", src, err)
		}
	}
	return db
}

const edgeQuery = `MATCH (p:Person) WHERE p.id >= 1 RETURN p.name ORDER BY p.name`

func TestStmtSurvivesCreateIndexPurgeMidStream(t *testing.T) {
	db := newEdgeDB(t, 0)
	st, err := db.Prepare(edgeQuery)
	if err != nil {
		t.Fatal(err)
	}

	sess := db.NewSession(SessionConfig{})
	defer sess.Close()
	rows, err := sess.Query(context.Background(), st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}

	// Invalidate the cache while the cursor is mid-stream. The planner's
	// access-path choice changed, but the old statement's plan stays valid.
	if err := db.CreateIndex("Person", "id", HybridIndex); err != nil {
		t.Fatal(err)
	}
	if db.CacheStats().Size != 0 {
		t.Fatalf("cache not purged: %+v", db.CacheStats())
	}

	got := []string{}
	for {
		var name string
		if err := rows.Scan(&name); err != nil {
			t.Fatal(err)
		}
		got = append(got, name)
		if !rows.Next() {
			break
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if want := "ada,bob,cleo"; strings.Join(got, ",") != want {
		t.Fatalf("streamed rows = %v, want %s", got, want)
	}

	// The detached statement also still runs from scratch.
	rows2, err := sess.Query(context.Background(), st, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := rows2.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("re-run rows = %d, want 3", len(out))
	}
}

func TestStmtSurvivesLRUEvictionWithOpenRows(t *testing.T) {
	db := newEdgeDB(t, 1) // every new statement evicts the previous one
	st, err := db.Prepare(edgeQuery)
	if err != nil {
		t.Fatal(err)
	}
	sess := db.NewSession(SessionConfig{})
	defer sess.Close()
	rows, err := sess.Query(context.Background(), st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}

	// Prepare two more distinct statements: the first evicts st, the
	// second evicts the first.
	if _, err := db.Prepare(`MATCH (p:Person) RETURN p.age`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Prepare(`MATCH (p:Person) RETURN COUNT(*)`); err != nil {
		t.Fatal(err)
	}
	stats := db.CacheStats()
	if stats.Evictions < 2 || stats.Size != 1 {
		t.Fatalf("expected 2 evictions down to size 1, got %+v", stats)
	}

	n := 1
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("streamed %d rows from evicted statement, want 3", n)
	}
}

func TestRePrepareAfterIndexInvalidation(t *testing.T) {
	db := newEdgeDB(t, 0)
	src := `MATCH (p:Person {id: $id}) RETURN p.name`
	st1, err := db.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := db.Prepare(src); again != st1 {
		t.Fatal("second Prepare did not hit the cache")
	}
	if strings.Contains(db.Explain(st1.Plan()), "IndexScan") {
		t.Fatal("pre-index plan already uses IndexScan")
	}

	if err := db.CreateIndex("Person", "id", HybridIndex); err != nil {
		t.Fatal(err)
	}
	missesBefore := db.CacheStats().Misses
	st2, err := db.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	if st2 == st1 {
		t.Fatal("Prepare returned the purged statement; the new index is invisible")
	}
	if got := db.CacheStats().Misses; got != missesBefore+1 {
		t.Fatalf("misses = %d, want %d (re-prepare must miss after purge)", got, missesBefore+1)
	}
	if !strings.Contains(db.Explain(st2.Plan()), "IndexScan") {
		t.Fatalf("re-prepared plan ignores the new index:\n%s", db.Explain(st2.Plan()))
	}

	// Both generations execute correctly.
	for _, st := range []*Stmt{st1, st2} {
		sess := db.NewSession(SessionConfig{})
		rows, err := sess.Query(context.Background(), st, map[string]any{"id": int64(2)})
		if err != nil {
			t.Fatal(err)
		}
		out, err := rows.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 || out[0][0] != "bob" {
			t.Fatalf("rows = %v, want [[bob]]", out)
		}
		sess.Close()
	}
}
