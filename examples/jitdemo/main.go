// JIT demo: shows the §6.2 machinery on one query — the generated IR
// before and after SimplifyCFG (the one pass that changes it), the
// compile time, the AOT-vs-JIT execution gap, the persistent code cache,
// and adaptive execution switching from interpreted to compiled morsels
// mid-query.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"poseidon/internal/core"
	"poseidon/internal/cypher"
	"poseidon/internal/index"
	"poseidon/internal/jit"
	"poseidon/internal/ldbc"
	"poseidon/internal/query"
)

func main() {
	// A PMem engine loaded with the LDBC-SNB-like social network.
	e, err := core.Open(core.Config{Mode: core.PMem, PoolSize: 1 << 30})
	if err != nil {
		log.Fatal(err)
	}
	defer e.Close()
	ds := ldbc.Generate(ldbc.Config{Persons: 300})
	if err := ds.LoadCore(e, true, index.Hybrid); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d nodes, %d edges\n\n", len(ds.Nodes), len(ds.Edges))

	// SR5 (message creator), scan-based so there is a pipeline to fuse.
	plan, err := ldbc.SRPlan(ldbc.QueryID{Num: 5, Variant: "post"}, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("query signature (the code-cache key):")
	fmt.Printf("  %s\n\n", plan.Signature())

	// Show the IR the codegen visitor produces for the plan's pipeline —
	// one program, its scan driven morsel by morsel whoever runs it — and
	// what SimplifyCFG does to it.
	fn, err := jit.Compile(plan.Split())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated IR: %d blocks, %d instructions\n", len(fn.Blocks), fn.NumInstrs())
	changed := jit.Optimize(fn)
	fmt.Printf("optimized IR: %d blocks, %d instructions\n", len(fn.Blocks), fn.NumInstrs())
	fmt.Printf("passes: simplifycfg:%d\n\n", changed)
	fmt.Println("optimized function:")
	fmt.Println(fn.String())

	// Compile through the engine (codegen + SimplifyCFG + lowering + caching).
	j, err := jit.New(e)
	if err != nil {
		log.Fatal(err)
	}
	// Every compile and run carries a context: a 10s ceiling cancels
	// mid-scan (and mid-compile) if something degenerates, rolling the
	// transaction back.
	ctx, cancelAll := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelAll()
	c, err := j.CompileCtx(ctx, plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compile time: %v (cache hit: %v)\n", c.CompileTime, c.FromCache)

	// Relinking from the persistent code cache is much cheaper.
	j.InvalidateSession()
	c2, err := j.CompileCtx(ctx, plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("relink from persistent cache: %v (cache hit: %v)\n\n", c2.CompileTime, c2.FromCache)

	// AOT vs JIT on the same transaction.
	params := query.Params{"id": int64(10)}
	pr, _ := query.Prepare(e, plan)
	tx := e.Begin()
	defer tx.Abort()

	const runs = 30
	var aot, jitTime time.Duration
	for i := 0; i < runs; i++ {
		start := time.Now()
		if err := pr.RunCtx(ctx, tx, params, func(query.Row) bool { return true }); err != nil {
			log.Fatal(err)
		}
		aot += time.Since(start)

		start = time.Now()
		if _, err := j.RunCtx(ctx, tx, plan, params, func(query.Row) bool { return true }); err != nil {
			log.Fatal(err)
		}
		jitTime += time.Since(start)
	}
	fmt.Printf("AOT interpretation: %v/run\n", aot/runs)
	fmt.Printf("JIT-compiled code:  %v/run (%.2fx)\n\n",
		jitTime/runs, float64(aot)/float64(jitTime))

	// Adaptive execution: morsels start interpreted; once background
	// compilation finishes, the task function is swapped (§6.2 Fig 3).
	// Cancelling ctx would stop the workers between morsels and abandon
	// the background compilation before it starts.
	j2, _ := jit.New(e) // fresh engine: empty in-memory cache
	j2.InvalidateSession()
	st, err := j2.RunAdaptiveCtx(ctx, tx, plan, params, 4, func(query.Row) bool { return true })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adaptive execution: %d morsels interpreted, %d compiled (compile ran in the background)\n",
		st.Adaptive.InterpretedMorsels, st.Adaptive.CompiledMorsels)

	// The same machinery serves the Cypher-like language (§1): statements
	// compile to the identical algebra and therefore the identical IR.
	cplan, err := cypher.Plan(e, `MATCH (p:Post {id: $id})-[:hasCreator]->(a) RETURN a.firstName, a.lastName`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncypher signature: %s\n", cplan.Signature())
	cc, err := j.CompileCtx(ctx, cplan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cypher plan compiled in %v; running under the JIT:\n", cc.CompileTime)
	tx2 := e.Begin()
	defer tx2.Abort()
	if _, err := j.RunCtx(ctx, tx2, cplan, query.Params{"id": int64(10)}, func(r query.Row) bool {
		first, _ := e.Dict().Decode(r[0].Code())
		last, _ := e.Dict().Decode(r[1].Code())
		fmt.Printf("  post 10 author: %s %s\n", first, last)
		return true
	}); err != nil {
		log.Fatal(err)
	}
}
