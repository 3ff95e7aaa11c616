package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"milret/internal/server"
)

var workloads = []string{"feedback", "catalog", "churn", "fanout"}

// TestWorkloadsTiny runs every workload untraced and traced at tiny
// scale: all checks pass and every metric of BENCHMARK.json is reported.
func TestWorkloadsTiny(t *testing.T) {
	raw, err := readBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: w, seed: 3, seconds: 0.6, trace: trace, tiny: true, dir: t.TempDir(), spans: t.TempDir()}
			rep, res, err := benchmark(o, nil)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d failures=%v",
					w, trace, res.Correct, res.Attempted, res.Failed, rep.Failures)
			}
			want := raw.EndToEnd
			if trace {
				want = raw.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestCorruptedRankingFailsChecks corrupts replies on the wire and
// requires the run to report incorrect output: once by swapping two
// results (out of order), once by nudging a distance by one ulp (no
// longer the ranking recorded at set-up, though still sorted).
func TestCorruptedRankingFailsChecks(t *testing.T) {
	corruptions := map[string]func([]server.QueryResult){
		"swap": func(rs []server.QueryResult) {
			if len(rs) > 1 {
				rs[0], rs[len(rs)-1] = rs[len(rs)-1], rs[0]
			}
		},
		"ulp": func(rs []server.QueryResult) {
			if n := len(rs); n > 0 {
				rs[n-1].Distance = rs[n-1].Distance * (1 + 1e-15)
			}
		},
	}
	for name, corrupt := range corruptions {
		o := options{workload: "catalog", seed: 5, seconds: 0.6, tiny: true, dir: t.TempDir()}
		sz := sizesFor(o.workload, true)
		// Set-up sends each canned query once and records its ranking;
		// corrupt only the /v1/query replies after those.
		var queries atomic.Int64
		wrap := func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/v1/query" || queries.Add(1) <= int64(sz.pool) {
					next.ServeHTTP(w, r)
					return
				}
				rec := httptest.NewRecorder()
				next.ServeHTTP(rec, r)
				var resp server.QueryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Error(err)
					return
				}
				corrupt(resp.Results)
				w.WriteHeader(rec.Code)
				json.NewEncoder(w).Encode(resp)
			})
		}
		rep, res, err := benchmark(o, wrap)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || len(rep.Failures) == 0 {
			t.Errorf("%s: corrupted rankings passed the output checks", name)
		}
	}
}

func TestCheckRanking(t *testing.T) {
	known := func(id string) bool { return strings.HasPrefix(id, "i") }
	good := []server.QueryResult{{ID: "i1", Distance: 1}, {ID: "i2", Distance: 1}, {ID: "i0", Distance: 2}}
	if err := checkRanking(good, 3, known, nil); err != nil {
		t.Fatal(err)
	}
	bad := map[string][]server.QueryResult{
		"tie order": {{ID: "i2", Distance: 1}, {ID: "i1", Distance: 1}, {ID: "i0", Distance: 2}},
		"duplicate": {{ID: "i1", Distance: 1}, {ID: "i1", Distance: 1}, {ID: "i0", Distance: 2}},
		"unknown":   {{ID: "x1", Distance: 1}, {ID: "i2", Distance: 1}, {ID: "i0", Distance: 2}},
		"short":     good[:2],
	}
	for name, rs := range bad {
		if checkRanking(rs, 3, known, nil) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if checkRanking(good, 3, known, []string{"i2"}) == nil {
		t.Error("excluded image accepted")
	}
}

type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON() (*benchmarkJSON, error) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	return &b, dec.Decode(&b)
}
