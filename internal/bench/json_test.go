package bench

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func goodResult() *Result {
	row := TableRow{Query: "sr1"}
	row.set("pmem-s", Dist{Mean: 10, P50: 9, P95: 14, Min: 8, Max: 15})
	return &Result{
		Schema:      ResultSchema,
		GeneratedAt: "2026-01-01T00:00:00Z",
		GoVersion:   "go1.22",
		Config:      Options{Persons: 60, Runs: 2, Seed: 42, PoolSize: 1 << 30},
		Figures:     []*Table{{Name: "Fig 5", Columns: []string{"pmem-s"}, Rows: []TableRow{row}}},
	}
}

func TestResultValidateOK(t *testing.T) {
	if err := goodResult().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestResultValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Result)
		want   string
	}{
		{"wrong schema", func(r *Result) { r.Schema = "v0" }, "schema"},
		{"no figures", func(r *Result) { r.Figures = nil }, "no figures"},
		{"empty row", func(r *Result) { r.Figures[0].Rows[0].Cells = nil }, "no cells"},
		{"negative cell", func(r *Result) { r.Figures[0].Rows[0].Cells["pmem-s"] = -1 }, "cell"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := goodResult()
			tc.mutate(r)
			err := r.Validate()
			if err == nil {
				t.Fatal("Validate passed, want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q, want substring %q", err, tc.want)
			}
		})
	}
}

func TestValidateJSONRoundTrip(t *testing.T) {
	data, err := json.Marshal(goodResult())
	if err != nil {
		t.Fatal(err)
	}
	r, err := ValidateJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Figures) != 1 || r.Figures[0].Rows[0].Dists["pmem-s"].P95 != 14 {
		t.Errorf("round trip lost data: %+v", r.Figures[0])
	}
}

func TestValidateJSONMalformed(t *testing.T) {
	if _, err := ValidateJSON([]byte(`{"schema": `)); err == nil {
		t.Error("malformed JSON accepted")
	}
	// Well-formed but empty: the CI contract requires figures.
	data, _ := json.Marshal(&Result{Schema: ResultSchema})
	if _, err := ValidateJSON(data); err == nil {
		t.Error("figure-less result accepted")
	}
}

func TestDistOf(t *testing.T) {
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Microsecond
	}
	d := distOf(samples)
	if d.Min != 1 || d.Max != 100 {
		t.Errorf("min/max = %v/%v, want 1/100", d.Min, d.Max)
	}
	if d.Mean != 50.5 {
		t.Errorf("mean = %v, want 50.5", d.Mean)
	}
	if d.P50 < 49 || d.P50 > 52 {
		t.Errorf("p50 = %v", d.P50)
	}
	if d.P95 < 94 || d.P95 > 97 {
		t.Errorf("p95 = %v", d.P95)
	}
	if (distOf(nil) != Dist{}) {
		t.Error("distOf(nil) not zero")
	}
}
