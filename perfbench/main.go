// Command perfbench is the repository benchmark. It generates a seeded
// corpus of synthetic scenes, ingests it through the public ingest path
// (milret.Database.AddImage), saves and reloads the store, serves it with
// the real HTTP stack (server.New / server.NewBackend, and for fanout
// remote.ShardServer partitions behind a remote.Coordinator) on loopback
// listeners, drives one workload from at most nproc client goroutines,
// checks every reply, and prints the metrics as one JSON object on the
// last line of standard output:
//
//	{"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// traced run records spans around every call into the layers (from this
// package's wrappers only), writes them under .bench_build/traces, and
// reports per-layer metrics instead. The line before the result is a
// JSON report with per-class request accounting and sample counts.
//
// Run it from the repository root through the build script:
//
//	bash perfbench/run.sh --workload feedback --seed 1 --seconds 22 --trace 0
//
// Workloads: feedback, catalog, churn, fanout (see rationale.json). The
// exit code is 0 only when every output check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// heldOutSeed is reserved for confirming performance claims: tune and
// develop on other seeds, then report the claim on this one too.
const heldOutSeed = 104729

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line before the result: what was measured and how much.
type report struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	HeldOutSeed int64                  `json:"held_out_seed"`
	Traced      bool                   `json:"traced"`
	Classes     map[string]*classStats `json:"classes"`
	OpenLoop    map[string]*classStats `json:"open_loop_phase,omitempty"`
	Samples     map[string]int         `json:"samples"`
	SetupS      []float64              `json:"setup_s"`
	// MutationP90MS is reported here, not gated: see rationale.json.
	MutationP90MS float64  `json:"mutation_p90_ms"`
	Checks        int64    `json:"checks"`
	Failures      []string `json:"check_failures,omitempty"`
	ScanShare     float64  `json:"query_scan_share,omitempty"`
	LimitMS       float64  `json:"p90_limit_ms,omitempty"`
	WithinLimit   *bool    `json:"within_limit,omitempty"`
	Spans         string   `json:"spans,omitempty"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "feedback, catalog, churn or fanout")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 22, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	rep, res, err := benchmark(o, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rep); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: output checks failed:", rep.Failures)
		os.Exit(1)
	}
}

// benchmark performs one run in a scratch directory under .bench_build
// and removes it afterwards; wrap, when set, wraps the front server's
// handler.
func benchmark(o options, wrap func(http.Handler) http.Handler) (*report, *result, error) {
	if o.workload == "" {
		return nil, nil, fmt.Errorf("-workload is required")
	}
	sz := sizesFor(o.workload, o.tiny)
	if sz.perCat == 0 {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.dir == "" {
		o.dir = filepath.Join(".bench_build", fmt.Sprintf("run-%s-%d-%d", o.workload, os.Getpid(), time.Now().UnixNano()))
	}
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "traces")
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(o.dir)

	r := &runner{o: o, sz: sz, nproc: runtime.NumCPU(), c: newCorpus(o.seed, sz.perCat), wrap: wrap}
	if o.trace {
		r.tr = newTracer()
		// Shard RPC clients use the default transport; wrapping it lets
		// traced requests carry their ID to the shard servers.
		orig := http.DefaultTransport
		http.DefaultTransport = rpcTransport{base: orig, t: r.tr}
		defer func() { http.DefaultTransport = orig }()
	}
	if err := r.run(); err != nil {
		return nil, nil, err
	}

	rep := &report{
		Workload: o.workload, Seed: o.seed, HeldOutSeed: heldOutSeed, Traced: o.trace,
		Classes: r.rec.classes, SetupS: r.setup.setupS,
		Checks: r.chk.checked, Failures: r.chk.failures,
		Samples: map[string]int{
			"query":    len(r.rec.latencies("query", false)) + len(r.rec.latencies("query", true)),
			"batch":    len(r.rec.latencies("batch", false)) + len(r.rec.latencies("batch", true)),
			"mutation": len(r.mutations().latencies("mutation", false)),
			"ap":       len(r.aps),
		},
	}
	rep.MutationP90MS = quantile(r.mutations().latencies("mutation", false), 0.9)
	attempted, failed := r.rec.totals()
	if r.open != nil {
		rep.OpenLoop = r.open.classes
		a, f := r.open.totals()
		attempted, failed = attempted+a, failed+f
		var over int64
		for _, c := range r.open.classes {
			over += c.OverLimit
		}
		// The limit is on p90: at most a tenth of requests may miss it.
		ok := over*10 <= a
		rep.LimitMS, rep.WithinLimit = sz.limitMS, &ok
	}
	res := &result{Correct: r.chk.ok() && attempted > 0, Attempted: attempted, Failed: failed}
	if o.trace {
		res.Metrics, rep.ScanShare = r.perLayer()
		rep.Spans = filepath.Join(o.spans, fmt.Sprintf("%s-seed%d-%d.jsonl", o.workload, o.seed, os.Getpid()))
		if err := os.MkdirAll(o.spans, 0o755); err != nil {
			return nil, nil, err
		}
		if err := r.tr.write(rep.Spans); err != nil {
			return nil, nil, fmt.Errorf("write spans: %w", err)
		}
	} else {
		res.Metrics = r.endToEnd()
	}
	return rep, res, nil
}
