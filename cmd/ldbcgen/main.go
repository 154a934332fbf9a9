// Command ldbcgen generates the LDBC-SNB-like dataset, loads it into a
// PMem engine (ldbc.LoadCore: the bulk loader, then one index backfill
// per workload index) and prints a summary: entity counts, degree
// statistics, storage utilization and the load's device counts. Useful for inspecting what the benchmarks run on.
//
// Usage:
//
//	ldbcgen [-persons N] [-seed S] [-save FILE]
//
// With -save, the engine's durable device image is written to FILE; the
// recovery example and graphshell can load it.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"poseidon/internal/core"
	"poseidon/internal/index"
	"poseidon/internal/ldbc"
)

func main() {
	persons := flag.Int("persons", 1000, "number of persons (SNB ratios derive the rest)")
	seed := flag.Int64("seed", 42, "generator seed")
	save := flag.String("save", "", "write the durable device image to this file")
	flag.Parse()

	start := time.Now()
	ds := ldbc.Generate(ldbc.Config{Persons: *persons, Seed: *seed})
	fmt.Printf("generated %d nodes, %d edges in %v\n",
		len(ds.Nodes), len(ds.Edges), time.Since(start).Round(time.Millisecond))

	byLabel := map[string]int{}
	for _, n := range ds.Nodes {
		byLabel[n.Label]++
	}
	labels := make([]string, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	fmt.Println("\nnodes by label:")
	for _, l := range labels {
		fmt.Printf("  %-12s %8d\n", l, byLabel[l])
	}
	byRel := map[string]int{}
	for _, e := range ds.Edges {
		byRel[e.Label]++
	}
	rels := make([]string, 0, len(byRel))
	for l := range byRel {
		rels = append(rels, l)
	}
	sort.Strings(rels)
	fmt.Println("\nedges by label:")
	for _, l := range rels {
		fmt.Printf("  %-12s %8d\n", l, byRel[l])
	}

	// Degree distribution of knows.
	deg := map[int]int{}
	for _, e := range ds.Edges {
		if e.Label == "knows" {
			deg[e.Src]++
		}
	}
	var maxDeg, sum int
	for _, d := range deg {
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	if len(deg) > 0 {
		fmt.Printf("\nknows out-degree: avg %.1f, max %d\n", float64(sum)/float64(len(deg)), maxDeg)
	}

	start = time.Now()
	e, err := core.Open(core.Config{Mode: core.PMem, PoolSize: 1 << 30})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer e.Close()
	if err := ds.LoadCore(e, true, index.Hybrid); err != nil {
		fmt.Fprintln(os.Stderr, "load:", err)
		os.Exit(1)
	}
	fmt.Printf("\nloaded into PMem engine in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("pool heap used: %.1f MiB\n", float64(e.Pool().HeapUsed())/(1<<20))
	st := e.Device().Stats.Snapshot()
	fmt.Printf("device during load: %d reads (%d cache misses), %d writes, %d line flushes, %d block writes, %d drains\n",
		st.Reads, st.CacheMisses, st.Writes, st.LineFlushes, st.BlockWrites, st.Drains)

	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := e.Device().Save(f); err != nil {
			fmt.Fprintln(os.Stderr, "save:", err)
			os.Exit(1)
		}
		fmt.Printf("durable image written to %s\n", *save)
	}
}
