package query

import (
	"context"
	"errors"
	"testing"

	"poseidon/internal/core"
	"poseidon/internal/index"
	"poseidon/internal/storage"
)

func TestNodeLookupOperator(t *testing.T) {
	e, persons, posts := testGraph(t, core.DRAM)
	if err := e.CreateIndex("Post", "content", index.Volatile); err != nil {
		t.Fatal(err)
	}
	// For each person (via id scan), look up post by content and link.
	p := &Plan{Root: &Project{
		Input: &NodeLookup{
			Input: &NodeByID{Param: "person"},
			Label: "Post", Key: "content", Value: &Param{Name: "c"},
		},
		Cols: []Expr{&IDOf{Col: 0}, &IDOf{Col: 1}},
	}}
	rows := runPlan(t, e, p, Params{"person": int64(persons[0]), "c": "post1"})
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if uint64(rows[0][0].Int()) != persons[0] || uint64(rows[0][1].Int()) != posts[1] {
		t.Errorf("row = %v, want [%d %d]", rows[0], persons[0], posts[1])
	}
	// Missing value: pipeline emits nothing but does not error.
	rows = runPlan(t, e, p, Params{"person": int64(persons[0]), "c": "nope"})
	if len(rows) != 0 {
		t.Errorf("missing value matched %d rows", len(rows))
	}
	// Missing index: error.
	bad := &Plan{Root: &NodeLookup{Input: &NodeByID{Param: "person"}, Label: "Post", Key: "length", Value: &Const{Val: 1}}}
	pr, _ := Prepare(e, bad)
	tx := e.Begin()
	defer tx.Abort()
	if _, err := pr.CollectCtx(context.Background(), tx, Params{"person": int64(persons[0])}); err == nil {
		t.Error("NodeLookup without index succeeded")
	}
}

func TestCreateRelOperatorInQueryPackage(t *testing.T) {
	e, persons, posts := testGraph(t, core.DRAM)
	if err := e.CreateIndex("Person", "name", index.Volatile); err != nil {
		t.Fatal(err)
	}
	relsBefore := func() uint64 { return e.RelCount() }()
	p := &Plan{Root: &CreateRel{
		Input: &NodeLookup{
			Input: &IndexScan{Label: "Person", Key: "name", Value: &Param{Name: "who"}},
			Label: "Person", Key: "name", Value: &Param{Name: "whom"},
		},
		SrcCol: 0, DstCol: 1, Label: "follows",
		Props: []PropSpec{{Key: "since", Val: &Const{Val: 2024}}},
	}}
	pr, err := Prepare(e, p)
	if err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	rows, err := pr.CollectCtx(context.Background(), tx, Params{"who": "person0", "whom": "person4"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("create-rel emitted %d rows", len(rows))
	}
	if e.RelCount() != relsBefore+1 {
		t.Errorf("rel count = %d, want %d", e.RelCount(), relsBefore+1)
	}
	// The new edge is traversable with its property.
	check := &Plan{Root: &Project{
		Input: &Expand{Input: &NodeByID{Param: "id"}, Col: 0, Dir: Out, RelLabel: "follows"},
		Cols:  []Expr{&Prop{Col: 1, Key: "since"}},
	}}
	rows = runPlan(t, e, check, Params{"id": int64(persons[0])})
	if len(rows) != 1 || rows[0][0].Int() != 2024 {
		t.Errorf("follows check = %v", rows)
	}
	_ = posts
}

func TestHasLabelAndLabelOf(t *testing.T) {
	e, _, _ := testGraph(t, core.DRAM)
	p := &Plan{Root: &CountAgg{Input: &Filter{
		Input: &NodeScan{},
		Pred:  &HasLabel{Col: 0, Label: "Post"},
	}}}
	rows := runPlan(t, e, p, nil)
	if rows[0][0].Int() != 3 {
		t.Errorf("hasLabel(Post) count = %d, want 3", rows[0][0].Int())
	}
	// Unknown label matches nothing.
	p2 := &Plan{Root: &CountAgg{Input: &Filter{
		Input: &NodeScan{},
		Pred:  &HasLabel{Col: 0, Label: "Ghost"},
	}}}
	rows = runPlan(t, e, p2, nil)
	if rows[0][0].Int() != 0 {
		t.Errorf("hasLabel(Ghost) count = %d", rows[0][0].Int())
	}
	// LabelOf projects the label code; Distinct over it groups labels.
	p3 := &Plan{Root: &CountAgg{Input: &Distinct{
		Input: &NodeScan{},
		Key:   &LabelOf{Col: 0},
	}}}
	rows = runPlan(t, e, p3, nil)
	if rows[0][0].Int() != 2 { // Person, Post
		t.Errorf("distinct labels = %d, want 2", rows[0][0].Int())
	}
	// HasLabel on a relationship column.
	p4 := &Plan{Root: &CountAgg{Input: &Filter{
		Input: &RelScan{},
		Pred:  &HasLabel{Col: 0, Label: "likes"},
	}}}
	rows = runPlan(t, e, p4, nil)
	if rows[0][0].Int() != 2 {
		t.Errorf("likes rels = %d, want 2", rows[0][0].Int())
	}
}

func TestBareExprAsPredicate(t *testing.T) {
	e, _, _ := testGraph(t, core.DRAM)
	// A boolean property used directly as a Filter predicate (the
	// buildPred fallback path). Persons have no "flag" prop: add some.
	tx := e.Begin()
	id, err := tx.CreateNode("Flagged", map[string]any{"flag": true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.CreateNode("Flagged", map[string]any{"flag": false}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	p := &Plan{Root: &Project{
		Input: &Filter{Input: &NodeScan{Label: "Flagged"}, Pred: &Prop{Col: 0, Key: "flag"}},
		Cols:  []Expr{&IDOf{Col: 0}},
	}}
	rows := runPlan(t, e, p, nil)
	if len(rows) != 1 || uint64(rows[0][0].Int()) != id {
		t.Errorf("truthy filter = %v, want [[%d]]", rows, id)
	}
}

func TestGetNodeOtherEnd(t *testing.T) {
	e, persons, _ := testGraph(t, core.DRAM)
	// Both-direction expand + Other endpoint resolution: friends of p2 in
	// either direction.
	p := &Plan{Root: &Project{
		Input: &GetNode{
			Input:  &Expand{Input: &NodeByID{Param: "id"}, Col: 0, Dir: Both, RelLabel: "knows"},
			RelCol: 1, End: Other, OtherCol: 0,
		},
		Cols: []Expr{&Prop{Col: 2, Key: "name"}},
	}}
	rows := runPlan(t, e, p, Params{"id": int64(persons[2])})
	names := map[string]bool{}
	for _, r := range rows {
		s, _ := e.Dict().Decode(r[0].Code())
		names[s] = true
	}
	if len(rows) != 3 || !names["person0"] || !names["person1"] || !names["person3"] {
		t.Errorf("other-end friends = %v", names)
	}
}

func TestDeleteRelViaPlan(t *testing.T) {
	e, persons, _ := testGraph(t, core.DRAM)
	relsBefore := e.RelCount()
	// Delete all outgoing knows of person0.
	p := &Plan{Root: &Delete{
		Input: &Expand{Input: &NodeByID{Param: "id"}, Col: 0, Dir: Out, RelLabel: "knows"},
		Col:   1,
	}}
	pr, _ := Prepare(e, p)
	tx := e.Begin()
	if _, err := pr.CollectCtx(context.Background(), tx, Params{"id": int64(persons[0])}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if e.RelCount() != relsBefore-2 {
		t.Errorf("rels = %d, want %d", e.RelCount(), relsBefore-2)
	}
}

func TestSetPropsOnRelColumn(t *testing.T) {
	e, persons, _ := testGraph(t, core.DRAM)
	p := &Plan{Root: &SetProps{
		Input: &Expand{Input: &NodeByID{Param: "id"}, Col: 0, Dir: Out, RelLabel: "knows"},
		Col:   1,
		Props: []PropSpec{{Key: "weight", Val: &Const{Val: 9}}},
	}}
	pr, _ := Prepare(e, p)
	tx := e.Begin()
	if _, err := pr.CollectCtx(context.Background(), tx, Params{"id": int64(persons[1])}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	check := &Plan{Root: &Project{
		Input: &Expand{Input: &NodeByID{Param: "id"}, Col: 0, Dir: Out, RelLabel: "knows"},
		Cols:  []Expr{&Prop{Col: 1, Key: "weight"}},
	}}
	rows := runPlan(t, e, check, Params{"id": int64(persons[1])})
	for _, r := range rows {
		if r[0].Int() != 9 {
			t.Errorf("rel weight = %v", r[0])
		}
	}
}

func TestToRowConversion(t *testing.T) {
	e, persons, _ := testGraph(t, core.DRAM)
	tx := e.Begin()
	defer tx.Abort()
	snap, err := tx.GetNode(persons[0])
	if err != nil {
		t.Fatal(err)
	}
	tup := Tuple{
		{Kind: DNode, Node: snap},
		{Kind: DVal, Val: storage.IntValue(7)},
	}
	row := ToRow(tup)
	if uint64(row[0].Int()) != persons[0] || row[1].Int() != 7 {
		t.Errorf("ToRow = %v", row)
	}
}

func TestSignatureCoversEveryOperator(t *testing.T) {
	// Smoke: every operator's sig() must be reachable and distinct enough
	// that structurally different plans differ.
	plans := []*Plan{
		{Root: &RelScan{Label: "x"}},
		{Root: &NodeByID{Param: "p"}},
		{Root: &CreateNode{Label: "L", Props: []PropSpec{{Key: "k", Val: &Const{Val: 1}}}}},
		{Root: &NodeLookup{Input: &NodeScan{}, Label: "L", Key: "k", Value: &Param{Name: "v"}}},
		{Root: &Distinct{Input: &NodeScan{}, Key: &LabelOf{Col: 0}}},
		{Root: &HashJoin{Left: &NodeScan{}, Right: &RelScan{}, LKey: &IDOf{Col: 0}, RKey: &IDOf{Col: 0}}},
		{Root: &SetProps{Input: &NodeScan{}, Col: 0, Props: []PropSpec{{Key: "k", Val: &Param{Name: "v"}}}}},
		{Root: &Delete{Input: &NodeScan{}, Col: 0}},
		{Root: &Filter{Input: &NodeScan{}, Pred: &Not{X: &Or{L: &HasLabel{Col: 0, Label: "a"}, R: &Cmp{Op: Ne, L: &LabelOf{Col: 0}, R: &Param{Name: "x"}}}}}},
		{Root: &OrderBy{Input: &NodeScan{}, Key: &IDOf{Col: 0}, Desc: true, Limit: 5}},
	}
	seen := map[string]bool{}
	for _, p := range plans {
		sig := p.Signature()
		if sig == "" {
			t.Error("empty signature")
		}
		if seen[sig] {
			t.Errorf("duplicate signature %q", sig)
		}
		seen[sig] = true
	}
}

func TestPrepareRejectsNilPlan(t *testing.T) {
	e, _, _ := testGraph(t, core.DRAM)
	if _, err := Prepare(e, &Plan{}); !errors.Is(err, ErrBadPlan) {
		t.Errorf("Prepare(empty) = %v", err)
	}
}
