// Command poseidon-crashx explores crash points of the engine's
// durability protocol. It replays an LDBC Interactive Update mix with a
// deterministic crash injected before the k-th flush/fence event, for
// every k (or a random sample), recovers each crashed image and verifies
// it with the internal/fsck invariant checks.
//
// Usage:
//
//	poseidon-crashx [-persons N] [-ops N] [-seed S] [-mask flush|drain]
//	                [-mix iu|ingest] [-random N] [-max N] [-replay SCHEDULE] [-q]
//
// The default mix commits one IU transaction at a time; -mix ingest
// commits them in multi-member group-commit epochs via CommitBatch, so
// crashes land around the epoch leader's group fence.
//
// Exit status is 0 when every explored schedule recovered to a clean
// image, 1 on violations and 2 on usage or harness errors. Every reported
// violation carries a schedule ID; -replay re-executes one schedule, e.g.
//
//	poseidon-crashx -replay 'persons=8,seed=7,ops=1,mask=flush|drain,k=21'
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"poseidon/internal/crashx"
	"poseidon/internal/pmem"
)

func main() {
	persons := flag.Int("persons", 16, "dataset scale (number of persons)")
	ops := flag.Int("ops", 20, "IU operations per run")
	seed := flag.Int64("seed", 1, "workload seed (op mix + parameters)")
	maskStr := flag.String("mask", "flush|drain", "crash event classes: store, flush, drain, all (joined by |)")
	random := flag.Int("random", 0, "sample N crash points instead of enumerating all")
	maxPoints := flag.Int("max", 0, "cap exhaustive enumeration at N points (0 = all)")
	replay := flag.String("replay", "", "re-execute one schedule ID and report")
	shards := flag.Int("shards", 0, "engine-core shard count for run and recovery (0 = engine default)")
	mixStr := flag.String("mix", "iu", "workload mix: iu (Tx.Commit, epochs of one) or ingest (multi-member CommitBatch epochs)")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()

	var mixSel string
	switch *mixStr {
	case "iu", "":
		mixSel = crashx.MixIU
	case "ingest":
		mixSel = crashx.MixIngest
	default:
		fmt.Fprintf(os.Stderr, "crashx: unknown -mix %q (want iu or ingest)\n", *mixStr)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	mask, err := pmem.ParseCrashEvents(*maskStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crashx:", err)
		os.Exit(2)
	}

	if *replay != "" {
		sched, err := crashx.ParseScheduleID(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crashx:", err)
			os.Exit(2)
		}
		v, err := crashx.Replay(ctx, sched)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crashx:", err)
			os.Exit(2)
		}
		if v != nil {
			fmt.Println(v)
			os.Exit(1)
		}
		fmt.Printf("schedule[%s]: recovered clean\n", sched)
		return
	}

	opts := crashx.Options{
		Persons:   *persons,
		Ops:       *ops,
		Seed:      *seed,
		Mask:      mask,
		Random:    *random,
		MaxPoints: *maxPoints,
		Shards:    *shards,
		Mix:       mixSel,
	}
	if !*quiet {
		opts.Progress = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}
	res, err := crashx.Explore(ctx, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crashx:", err)
		os.Exit(2)
	}
	fmt.Printf("explored %d crash points (of %d %s events): %d violations\n",
		res.Points, res.TotalEvents, mask, len(res.Violations))
	for _, v := range res.Violations {
		fmt.Println(v)
	}
	if len(res.Violations) > 0 {
		os.Exit(1)
	}
}
