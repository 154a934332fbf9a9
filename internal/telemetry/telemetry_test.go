package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_len", "lengths", LengthBuckets(64), 1)
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(uint64(w*perWorker+i) % 100)
			}
		}(w)
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", snap.Count, workers*perWorker)
	}
	last := snap.Buckets[len(snap.Buckets)-1]
	if last.Count != snap.Count {
		t.Fatalf("+Inf bucket %d != count %d", last.Count, snap.Count)
	}
	for i := 1; i < len(snap.Buckets); i++ {
		if snap.Buckets[i].Count < snap.Buckets[i-1].Count {
			t.Fatalf("buckets not cumulative at %d", i)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]uint64{10, 100, 1000}, 1)
	for i := 0; i < 100; i++ {
		h.Observe(5) // all in the first bucket
	}
	snap := h.Snapshot()
	if q := snap.Quantile(0.5); q <= 0 || q > 10 {
		t.Fatalf("p50 = %v, want within (0,10]", q)
	}
	h.Observe(5000) // +Inf bucket
	snap = h.Snapshot()
	if q := snap.Quantile(1.0); q != 1000 {
		t.Fatalf("p100 with +Inf tail = %v, want capped at 1000", q)
	}
}

func TestNilHandlesNoAllocs(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
	)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(5)
		_ = c.Value()
		g.Add(1)
		g.Set(3)
		_ = g.Value()
		h.Observe(42)
		h.ObserveDuration(time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("nil telemetry handles allocated %v times per op", allocs)
	}
}

func TestNilRegistryConstructors(t *testing.T) {
	var r *Registry
	if c := r.Counter("x", "x"); c != nil {
		t.Fatal("nil registry must hand out nil counters")
	}
	if g := r.Gauge("x", "x"); g != nil {
		t.Fatal("nil registry must hand out nil gauges")
	}
	if h := r.Histogram("x", "x", LatencyBuckets(), 1e9); h != nil {
		t.Fatal("nil registry must hand out nil histograms")
	}
	r.CounterFunc("x", "x", func() uint64 { return 1 })
	r.GaugeFunc("x", "x", func() float64 { return 1 })
	var b strings.Builder
	r.WritePrometheus(&b)
	if b.Len() != 0 {
		t.Fatal("nil registry must render nothing")
	}
	if snap := r.Snapshot(); len(snap.Values)+len(snap.Histograms) != 0 || snap.Values["x"] != 0 {
		t.Fatalf("nil registry snapshot = %+v, want empty and readable", snap)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("app_ops_total", "Total ops.")
	c.Add(7)
	byReason := r.Counter("app_fail_total", "Failures.", Label{"reason", "timeout"})
	byReason.Inc()
	r.Counter("app_fail_total", "Failures.", Label{"reason", "conflict"})
	g := r.Gauge("app_active", "Active things.")
	g.Set(3)
	h := r.Histogram("app_latency_seconds", "Latency.", []uint64{1000, 1_000_000}, 1e9)
	h.Observe(500)       // first bucket
	h.Observe(2_000_000) // +Inf

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()

	for _, want := range []string{
		"# HELP app_ops_total Total ops.\n",
		"# TYPE app_ops_total counter\n",
		"app_ops_total 7\n",
		`app_fail_total{reason="timeout"} 1`,
		`app_fail_total{reason="conflict"} 0`,
		"# TYPE app_active gauge\n",
		"app_active 3\n",
		"# TYPE app_latency_seconds histogram\n",
		`app_latency_seconds_bucket{le="1e-06"} 1`,
		`app_latency_seconds_bucket{le="+Inf"} 2`,
		"app_latency_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// The snapshot carries the same series under the names printed above.
	snap := r.Snapshot()
	for series, want := range map[string]float64{
		"app_ops_total": 7, `app_fail_total{reason="timeout"}`: 1, `app_fail_total{reason="conflict"}`: 0, "app_active": 3,
	} {
		if got, ok := snap.Values[series]; !ok || got != want {
			t.Errorf("snapshot %s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	if hs := snap.Histograms["app_latency_seconds"]; hs.Count != 2 || len(snap.Histograms) != 1 || len(snap.Values) != 4 {
		t.Errorf("snapshot histograms = %+v, values = %v", snap.Histograms, snap.Values)
	}
	// HELP/TYPE must appear exactly once per family even with two series.
	if strings.Count(out, "# TYPE app_fail_total counter") != 1 {
		t.Fatalf("TYPE emitted more than once per family:\n%s", out)
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_ops_total", "ops").Add(2)
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	MountPprof(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(string(body), "h_ops_total 2") {
		t.Fatalf("metrics body missing counter:\n%s", body)
	}

	// pprof index must be mounted.
	resp2, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("pprof index status = %d", resp2.StatusCode)
	}
}
