package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Profile is a PROFILE-style per-query execution breakdown built from
// one finished trace: stage timings aggregated by span name, plus the
// counters the spans carried (morsels, rows, retries, abort causes).
type Profile struct {
	TraceID string        `json:"trace_id"`
	Root    string        `json:"root"`
	Total   time.Duration `json:"total_ns"`
	Err     string        `json:"err,omitempty"`
	Stages  []Stage       `json:"stages"`
	// Attrs are the root span's annotations (query text, mode, rows…).
	Attrs []Attr `json:"attrs,omitempty"`
}

// Stage aggregates all spans sharing a name: how many ran, their summed
// wall time, and merged annotations (numeric attrs are summed, the
// last value wins otherwise).
type Stage struct {
	Name  string        `json:"name"`
	Kind  Kind          `json:"kind"`
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"`
	Attrs []Attr        `json:"attrs,omitempty"`
	Errs  []string      `json:"errs,omitempty"`
}

// BuildProfile aggregates a trace into a Profile; nil in, nil out.
func BuildProfile(tr *Trace) *Profile {
	if tr == nil {
		return nil
	}
	root := tr.Root()
	p := &Profile{
		TraceID: FormatID(tr.ID),
		Root:    root.Name,
		Total:   tr.Duration,
		Err:     tr.Err,
		Attrs:   root.Attrs,
	}
	idx := map[string]int{}
	order := []string{}
	stages := map[string]*Stage{}
	for i := range tr.Spans {
		sp := &tr.Spans[i]
		if sp.ID == root.ID {
			continue
		}
		st, ok := stages[sp.Name]
		if !ok {
			st = &Stage{Name: sp.Name, Kind: sp.Kind}
			stages[sp.Name] = st
			idx[sp.Name] = len(order)
			order = append(order, sp.Name)
		}
		st.Count++
		st.Total += sp.Duration
		st.Attrs = mergeAttrs(st.Attrs, sp.Attrs)
		if sp.Err != "" {
			st.Errs = append(st.Errs, sp.Err)
		}
	}
	// First-start order reads as execution order; map order does not.
	sort.Slice(order, func(i, j int) bool {
		return firstStart(tr, order[i]).Before(firstStart(tr, order[j]))
	})
	for _, name := range order {
		p.Stages = append(p.Stages, *stages[name])
	}
	return p
}

// Stage returns the named stage, or nil when no such span ran.
func (p *Profile) Stage(name string) *Stage {
	if p == nil {
		return nil
	}
	for i := range p.Stages {
		if p.Stages[i].Name == name {
			return &p.Stages[i]
		}
	}
	return nil
}

// Attr returns the stage's value for key; nil when the stage (nil-safe)
// carries none.
func (s *Stage) Attr(key string) any {
	if s == nil {
		return nil
	}
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

func firstStart(tr *Trace, name string) time.Time {
	for i := range tr.Spans {
		if tr.Spans[i].Name == name {
			return tr.Spans[i].Start
		}
	}
	return time.Time{}
}

// mergeAttrs folds src into dst: int-like values are summed per key,
// anything else is replaced.
func mergeAttrs(dst, src []Attr) []Attr {
	for _, a := range src {
		found := false
		for i := range dst {
			if dst[i].Key != a.Key {
				continue
			}
			found = true
			if x, ok := asInt64(dst[i].Value); ok {
				if y, ok2 := asInt64(a.Value); ok2 {
					dst[i].Value = x + y
					break
				}
			}
			dst[i].Value = a.Value
			break
		}
		if !found {
			dst = append(dst, a)
		}
	}
	return dst
}

func asInt64(v any) (int64, bool) {
	switch x := v.(type) {
	case int:
		return int64(x), true
	case int32:
		return int64(x), true
	case int64:
		return x, true
	case uint32:
		return int64(x), true
	case uint64:
		return int64(x), true
	}
	return 0, false
}

// Format pretty-prints the profile for the shell (:profile).
func (p *Profile) Format() string {
	if p == nil {
		return "no profile recorded (tracing disabled or no statement run yet)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s  %s  total %s", p.TraceID, p.Root, p.Total.Round(time.Microsecond))
	if p.Err != "" {
		fmt.Fprintf(&b, "  ERROR: %s", p.Err)
	}
	b.WriteByte('\n')
	for _, a := range p.Attrs {
		fmt.Fprintf(&b, "  %-18s %v\n", a.Key+":", a.Value)
	}
	if len(p.Stages) > 0 {
		fmt.Fprintf(&b, "  %-28s %8s %14s  %s\n", "stage", "count", "total", "detail")
		for _, st := range p.Stages {
			detail := make([]string, 0, len(st.Attrs)+len(st.Errs))
			for _, a := range st.Attrs {
				detail = append(detail, fmt.Sprintf("%s=%v", a.Key, a.Value))
			}
			for _, e := range st.Errs {
				detail = append(detail, "err="+e)
			}
			fmt.Fprintf(&b, "  %-28s %8d %14s  %s\n",
				fmt.Sprintf("%s [%s]", st.Name, st.Kind), st.Count,
				st.Total.Round(time.Microsecond), strings.Join(detail, " "))
		}
	}
	return b.String()
}
