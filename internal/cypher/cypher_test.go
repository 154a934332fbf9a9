package cypher

import (
	"context"
	"sort"
	"strings"
	"testing"

	"poseidon/internal/core"
	"poseidon/internal/index"
	"poseidon/internal/query"
)

func testEngine(t *testing.T) *core.Engine {
	t.Helper()
	e, err := core.Open(core.Config{Mode: core.DRAM, PoolSize: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	bl := e.NewBulkLoader()
	people := map[string]uint64{}
	add := func(name string, age int64) {
		id, err := bl.AddNode("Person", map[string]any{"name": name, "age": age})
		if err != nil {
			t.Fatal(err)
		}
		people[name] = id
	}
	add("ada", 36)
	add("bob", 25)
	add("cleo", 41)
	add("dan", 29)
	bl.AddRel(people["ada"], people["bob"], "knows", map[string]any{"since": int64(2019)})
	bl.AddRel(people["ada"], people["cleo"], "knows", map[string]any{"since": int64(2021)})
	bl.AddRel(people["bob"], people["dan"], "knows", map[string]any{"since": int64(2020)})
	bl.AddRel(people["cleo"], people["ada"], "admires", nil)
	if err := bl.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex("Person", "name", index.Volatile); err != nil {
		t.Fatal(err)
	}
	return e
}

func run(t *testing.T, e *core.Engine, src string, params query.Params) [][]any {
	t.Helper()
	plan, err := Plan(e, src)
	if err != nil {
		t.Fatalf("plan %q: %v", src, err)
	}
	pr, err := query.Prepare(e, plan)
	if err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	rows, err := pr.CollectCtx(context.Background(), tx, params)
	if err != nil {
		tx.Abort()
		t.Fatalf("run %q: %v", src, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	out := make([][]any, len(rows))
	for i, r := range rows {
		out[i] = make([]any, len(r))
		for k, v := range r {
			gv, err := e.DecodeValue(v)
			if err != nil {
				t.Fatal(err)
			}
			out[i][k] = gv
		}
	}
	return out
}

func names(rows [][]any) []string {
	var out []string
	for _, r := range rows {
		out = append(out, r[0].(string))
	}
	sort.Strings(out)
	return out
}

func TestMatchReturnBasic(t *testing.T) {
	e := testEngine(t)
	rows := run(t, e, `MATCH (p:Person) RETURN p.name`, nil)
	if got := names(rows); strings.Join(got, ",") != "ada,bob,cleo,dan" {
		t.Errorf("names = %v", got)
	}
}

func TestMatchWithPropertyUsesIndex(t *testing.T) {
	e := testEngine(t)
	plan, err := Plan(e, `MATCH (p:Person {name: 'ada'}) RETURN p.age`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Signature(), "IndexScan") {
		t.Errorf("indexed property did not plan an IndexScan: %s", plan.Signature())
	}
	rows := run(t, e, `MATCH (p:Person {name: 'ada'}) RETURN p.age`, nil)
	if len(rows) != 1 || rows[0][0] != int64(36) {
		t.Errorf("rows = %v", rows)
	}
	// Non-indexed property: scan + filter, same answer.
	plan2, _ := Plan(e, `MATCH (p:Person {age: 36}) RETURN p.name`)
	if strings.Contains(plan2.Signature(), "IndexScan") {
		t.Errorf("non-indexed property planned an IndexScan")
	}
	rows = run(t, e, `MATCH (p:Person {age: 36}) RETURN p.name`, nil)
	if len(rows) != 1 || rows[0][0] != "ada" {
		t.Errorf("rows = %v", rows)
	}
}

func TestTraversalDirections(t *testing.T) {
	e := testEngine(t)
	out := run(t, e, `MATCH (p:Person {name: 'ada'})-[:knows]->(f) RETURN f.name`, nil)
	if got := names(out); strings.Join(got, ",") != "bob,cleo" {
		t.Errorf("out = %v", got)
	}
	in := run(t, e, `MATCH (p:Person {name: 'ada'})<-[:admires]-(f) RETURN f.name`, nil)
	if got := names(in); strings.Join(got, ",") != "cleo" {
		t.Errorf("in = %v", got)
	}
	both := run(t, e, `MATCH (p:Person {name: 'ada'})-[:knows]-(f) RETURN f.name`, nil)
	if got := names(both); strings.Join(got, ",") != "bob,cleo" {
		t.Errorf("both = %v", got)
	}
	twoHop := run(t, e, `MATCH (p:Person {name: 'ada'})-[:knows]->(f)-[:knows]->(ff) RETURN ff.name`, nil)
	if got := names(twoHop); strings.Join(got, ",") != "dan" {
		t.Errorf("two hop = %v", got)
	}
}

// TestLabelledEndpointIsFetchedByLabel: a labelled pattern node reached
// by a traversal puts its label on the GetNode that fetches it — no
// HasLabel filter after a fetch of every endpoint — and answers what that
// filter did.
func TestLabelledEndpointIsFetchedByLabel(t *testing.T) {
	e := testEngine(t)
	tx := e.Begin()
	rome, err := tx.CreateNode("City", map[string]any{"name": "rome"})
	if err != nil {
		t.Fatal(err)
	}
	oslo, err := tx.CreateNode("City", map[string]any{"name": "oslo"})
	if err != nil {
		t.Fatal(err)
	}
	ada, bob := personID(t, e, "ada"), personID(t, e, "bob")
	for _, to := range []uint64{rome, bob, oslo} {
		if _, err := tx.CreateRel(ada, to, "visited", nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.CreateRel(bob, rome, "visited", nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	const src = `MATCH (a)-[:visited]->(c:City) RETURN c.name`
	plan, err := Plan(e, src)
	if err != nil {
		t.Fatal(err)
	}
	if sig := plan.Signature(); !strings.Contains(sig, "|GetNode(1,dst,0,City)") || strings.Contains(sig, "hasLabel") {
		t.Errorf("plan = %s, want a GetNode labelled City and no hasLabel", sig)
	}
	rows := run(t, e, src, nil)
	// The plan the label filter made: every endpoint fetched, then tested.
	filtered := &query.Plan{Root: &query.Project{
		Input: &query.Filter{
			Input: &query.GetNode{
				Input:  &query.Expand{Input: &query.NodeScan{}, Col: 0, Dir: query.Out, RelLabel: "visited"},
				RelCol: 1, End: query.Dst,
			},
			Pred: &query.HasLabel{Col: 2, Label: "City"},
		},
		Cols: []query.Expr{&query.Prop{Col: 2, Key: "name"}},
	}}
	pr, err := query.Prepare(e, filtered)
	if err != nil {
		t.Fatal(err)
	}
	tx = e.Begin()
	defer tx.Abort()
	wantRows, err := pr.CollectCtx(context.Background(), tx, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]any
	for _, r := range wantRows {
		name, err := e.DecodeValue(r[0])
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, []any{name})
	}
	if got := strings.Join(names(rows), ","); got != "oslo,rome,rome" || got != strings.Join(names(want), ",") {
		t.Errorf("labelled fetch = %s, the label filter's plan %v; want oslo,rome,rome from both", got, names(want))
	}
	persons := run(t, e, `MATCH (a:Person {name: 'ada'})-[:visited]->(p:Person) RETURN p.name`, nil)
	if got := names(persons); strings.Join(got, ",") != "bob" {
		t.Errorf("ada visited persons = %v, want bob", got)
	}
}

// personID looks up a person's id by name.
func personID(t *testing.T, e *core.Engine, name string) uint64 {
	t.Helper()
	ref, ok := e.IndexFor("Person", "name")
	if !ok {
		t.Fatal("no Person.name index")
	}
	v, err := e.EncodeValue(name)
	if err != nil {
		t.Fatal(err)
	}
	ids := ref.LookupAppend(nil, v)
	if len(ids) != 1 {
		t.Fatalf("person %q: %d ids", name, len(ids))
	}
	return ids[0]
}

func TestWhereOrderLimitParams(t *testing.T) {
	e := testEngine(t)
	rows := run(t, e,
		`MATCH (p:Person) WHERE p.age > $min AND NOT p.name = 'cleo' RETURN p.name, p.age ORDER BY p.age DESC LIMIT 2`,
		query.Params{"min": int64(24)})
	if len(rows) != 2 || rows[0][0] != "ada" || rows[1][0] != "dan" {
		t.Errorf("rows = %v", rows)
	}
	// Relationship property in WHERE and RETURN.
	rows = run(t, e,
		`MATCH (p:Person {name: 'ada'})-[r:knows]->(f) WHERE r.since >= 2020 RETURN f.name, r.since`, nil)
	if len(rows) != 1 || rows[0][0] != "cleo" || rows[0][1] != int64(2021) {
		t.Errorf("rel filter rows = %v", rows)
	}
}

func TestCountAndDistinct(t *testing.T) {
	e := testEngine(t)
	rows := run(t, e, `MATCH (p:Person)-[:knows]->(f) RETURN COUNT(*)`, nil)
	if rows[0][0] != int64(3) {
		t.Errorf("count = %v", rows[0][0])
	}
	rows = run(t, e, `MATCH (p:Person)-[:knows]->(f) RETURN DISTINCT p.name`, nil)
	if len(rows) != 2 { // ada, bob have out-knows
		t.Errorf("distinct rows = %v", rows)
	}
}

func TestCreateStatements(t *testing.T) {
	e := testEngine(t)
	// Standalone node create.
	run(t, e, `CREATE (x:Person {name: 'eve', age: 33})`, nil)
	rows := run(t, e, `MATCH (p:Person {name: 'eve'}) RETURN p.age`, nil)
	if len(rows) != 1 || rows[0][0] != int64(33) {
		t.Errorf("created node = %v", rows)
	}
	// Create a relationship between matched nodes (the IU8 pattern).
	run(t, e, `MATCH (a:Person {name: 'eve'}), (b:Person {name: 'dan'}) CREATE (a)-[:knows {since: 2024}]->(b)`, nil)
	rows = run(t, e, `MATCH (a:Person {name: 'eve'})-[r:knows]->(b) RETURN b.name, r.since`, nil)
	if len(rows) != 1 || rows[0][0] != "dan" || rows[0][1] != int64(2024) {
		t.Errorf("created rel = %v", rows)
	}
	// Create two nodes and a relationship in one statement.
	run(t, e, `CREATE (m:Forum {title: 'general'})-[:hasModerator]->(n:Person {name: 'fay'})`, nil)
	rows = run(t, e, `MATCH (f:Forum)-[:hasModerator]->(m) RETURN m.name`, nil)
	if len(rows) != 1 || rows[0][0] != "fay" {
		t.Errorf("multi-create = %v", rows)
	}
}

func TestSetAndDelete(t *testing.T) {
	e := testEngine(t)
	run(t, e, `MATCH (p:Person {name: 'bob'}) SET p.age = $age, p.city = 'berlin'`, query.Params{"age": int64(26)})
	rows := run(t, e, `MATCH (p:Person {name: 'bob'}) RETURN p.age, p.city`, nil)
	if rows[0][0] != int64(26) || rows[0][1] != "berlin" {
		t.Errorf("set result = %v", rows)
	}
	before := e.NodeCount()
	run(t, e, `MATCH (p:Person {name: 'dan'}) DETACH DELETE p`, nil)
	if e.NodeCount() != before-1 {
		t.Errorf("node count after delete = %d", e.NodeCount())
	}
	rows = run(t, e, `MATCH (p:Person {name: 'dan'}) RETURN p`, nil)
	if len(rows) != 0 {
		t.Errorf("deleted person still matched: %v", rows)
	}
}

func TestCypherRunsUnderJITAndParallel(t *testing.T) {
	e := testEngine(t)
	// Compiled plans are ordinary algebra: they work on every mode.
	src := `MATCH (p:Person)-[r:knows]->(f) WHERE r.since > 2018 RETURN f.age ORDER BY f.age LIMIT 3`
	plan, err := Plan(e, src)
	if err != nil {
		t.Fatal(err)
	}
	pr, _ := query.Prepare(e, plan)
	tx := e.Begin()
	defer tx.Abort()
	want, err := pr.CollectCtx(context.Background(), tx, nil)
	if err != nil {
		t.Fatal(err)
	}
	var par []query.Row
	if err := pr.RunParallelCtx(context.Background(), tx, nil, 2, func(r query.Row) bool { par = append(par, r); return true }); err != nil {
		t.Fatal(err)
	}
	if len(par) != len(want) {
		t.Errorf("parallel rows = %d, want %d", len(par), len(want))
	}
}

func TestParseErrors(t *testing.T) {
	e := testEngine(t)
	cases := []string{
		``,
		`RETURN x`,
		`MATCH (p RETURN p`,
		`MATCH (p:Person) RETURN`,
		`MATCH (p:Person) WHERE p.age RETURN p`,
		`MATCH (p:Person) LIMIT 5`,
		`MATCH (a)-[r]->(b)<-[q]->(c) RETURN a`,
		`MATCH (p:Person) RETURN q.name`,
		`MATCH (p:Person {name: 'ada'}), (q:Person) RETURN q`, // cartesian
		`MATCH (p:Person) RETURN p.name LIMIT 0`,
		`CREATE (a)-[:x]-(b)`, // undirected create
		`MATCH (p:Person) SET q.age = 1`,
		`MATCH (p:Person) WHERE p.name = 'unterminated RETURN p`,
	}
	for _, src := range cases {
		if _, err := Plan(e, src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestLexerCoverage(t *testing.T) {
	toks, err := lex(`MATCH (a:L {k: 1.5, s: "x\"y", b: TRUE})-[r]->(b) WHERE a.x <= 2 AND a.y <> 3 OR a.z >= $p RETURN a`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Error("missing EOF token")
	}
	if _, err := lex(`MATCH (a) WHERE a.x = 'open`); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := lex(`$`); err == nil {
		t.Error("empty parameter accepted")
	}
	if _, err := lex("a ~ b"); err == nil {
		t.Error("bad character accepted")
	}
}
