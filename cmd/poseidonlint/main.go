// Command poseidonlint runs the poseidon static analyzer (internal/lint)
// over the module: crash-consistency discipline (flush ordering,
// undo-log coverage, torn multi-word stores — paper C4), context
// threading, and the CFG-based concurrency passes (lock order, seqlock
// brackets, span/rows lifecycle, wire error codes).
//
// Usage:
//
//	go run ./cmd/poseidonlint ./...
//	go run ./cmd/poseidonlint -list
//	go run ./cmd/poseidonlint -enable flush-discipline,torn-store ./internal/storage
//	go run ./cmd/poseidonlint -sarif lint.sarif -timing -time-budget 60s ./...
//
// Findings print as "file:line:col: [pass] message"; the exit status is
// 1 when any finding remains, 2 on a fatal error, and 3 when
// -time-budget is set and the analyzer ran over it.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"poseidon/internal/lint"
)

func main() {
	var (
		enable   = flag.String("enable", "", "comma-separated passes to run (default: all)")
		list     = flag.Bool("list", false, "list available passes and exit")
		sarifOut = flag.String("sarif", "", "also write findings as SARIF 2.1.0 to this file")
		timing   = flag.Bool("timing", false, "print per-pass wall-clock timings to stderr")
		budget   = flag.Duration("time-budget", 0, "exit 3 if load+analysis wall-clock exceeds this duration (0 = no budget)")
	)
	flag.Parse()

	if *list {
		for _, p := range lint.Passes() {
			fmt.Printf("%-22s %s\n", p.Name, p.Doc)
		}
		return
	}

	root, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	m, err := lint.Load(root)
	if err != nil {
		fatal(err)
	}
	loadElapsed := time.Since(start)

	findings, timings, err := lint.RunTimed(m, lint.Options{Enable: splitList(*enable)})
	if err != nil {
		fatal(err)
	}
	total := time.Since(start)
	findings = filterByPatterns(root, findings, flag.Args())

	if *timing {
		fmt.Fprintf(os.Stderr, "poseidonlint: %-22s %8.1fms\n", "load+typecheck", float64(loadElapsed.Microseconds())/1000)
		for _, t := range timings {
			fmt.Fprintf(os.Stderr, "poseidonlint: %-22s %8.1fms\n", t.Pass, float64(t.Elapsed.Microseconds())/1000)
		}
		fmt.Fprintf(os.Stderr, "poseidonlint: %-22s %8.1fms\n", "total", float64(total.Microseconds())/1000)
	}

	for _, f := range findings {
		fmt.Println(rel(root, f))
	}
	if *sarifOut != "" {
		w, err := os.Create(*sarifOut)
		if err != nil {
			fatal(err)
		}
		if err := lint.WriteSARIF(w, root, findings); err != nil {
			w.Close()
			fatal(err)
		}
		if err := w.Close(); err != nil {
			fatal(err)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "poseidonlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
	if *budget > 0 && total > *budget {
		fmt.Fprintf(os.Stderr, "poseidonlint: analysis took %s, over the %s budget\n", total.Round(time.Millisecond), *budget)
		os.Exit(3)
	}
}

func rel(root string, f lint.Finding) string {
	s := f.String()
	if r, err := filepath.Rel(root, f.Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
		s = fmt.Sprintf("%s:%d:%d: [%s] %s", filepath.ToSlash(r), f.Pos.Line, f.Pos.Column, f.Pass, f.Msg)
	}
	return s
}

// filterByPatterns narrows findings to the requested package patterns.
// "./..." (or no args) keeps everything; "./internal/index" keeps that
// directory; a trailing "/..." keeps the subtree.
func filterByPatterns(root string, findings []lint.Finding, patterns []string) []lint.Finding {
	if len(patterns) == 0 {
		return findings
	}
	var prefixes []string
	for _, p := range patterns {
		if p == "./..." || p == "..." || p == "all" {
			return findings
		}
		sub := strings.TrimSuffix(p, "/...")
		abs := sub
		if !filepath.IsAbs(sub) {
			abs = filepath.Join(root, sub)
		}
		prefixes = append(prefixes, filepath.Clean(abs))
	}
	var out []lint.Finding
	for _, f := range findings {
		dir := filepath.Dir(f.Pos.Filename)
		for _, p := range prefixes {
			if dir == p || strings.HasPrefix(dir, p+string(filepath.Separator)) {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("poseidonlint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "poseidonlint:", err)
	os.Exit(2)
}
