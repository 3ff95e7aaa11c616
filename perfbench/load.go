package main

import (
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// sample is one request's latency in milliseconds.
type sample struct {
	ms     float64
	traced bool
}

// classStats accounts for one traffic class.
type classStats struct {
	Attempted int64 `json:"attempted"`
	Succeeded int64 `json:"succeeded"`
	Failed    int64 `json:"failed"`
	// OverLimit counts requests slower than the latency limit, failures
	// included; only the catalog open loop sets a limit.
	OverLimit int64 `json:"over_limit,omitempty"`
	samples   []sample
}

// recorder accounts for every request of one measured phase, per
// traffic class. Class names start with the request kind: "query",
// "batch" or "mutation".
type recorder struct {
	limitMS float64 // 0: no latency limit
	mu      sync.Mutex
	classes map[string]*classStats
	// queries counts example-based queries answered: single /v1/query
	// requests plus the query entries of batches.
	queries int64
	lags    []float64 // generator lateness, ms
}

func newRecorder(limitMS float64) *recorder {
	return &recorder{limitMS: limitMS, classes: map[string]*classStats{}}
}

// add records one request. A failed request enters the percentiles as a
// worst-case sample (the request timeout) and counts as over the limit.
func (r *recorder) add(class string, d time.Duration, traced bool, err error, queries int) {
	ms := float64(d) / float64(time.Millisecond)
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.classes[class]
	if c == nil {
		c = &classStats{}
		r.classes[class] = c
	}
	c.Attempted++
	if err != nil {
		c.Failed++
		ms = float64(requestTimeout / time.Millisecond)
	} else {
		c.Succeeded++
		r.queries += int64(queries)
	}
	if r.limitMS > 0 && ms > r.limitMS {
		c.OverLimit++
	}
	c.samples = append(c.samples, sample{ms: ms, traced: traced})
}

func (r *recorder) lag(d time.Duration) {
	r.mu.Lock()
	r.lags = append(r.lags, float64(d)/float64(time.Millisecond))
	r.mu.Unlock()
}

// latencies returns the samples of every class whose name starts with
// kind, filtered by trace state.
func (r *recorder) latencies(kind string, traced bool) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for name, c := range r.classes {
		if !strings.HasPrefix(name, kind) {
			continue
		}
		for _, s := range c.samples {
			if s.traced == traced {
				out = append(out, s.ms)
			}
		}
	}
	return out
}

func (r *recorder) totals() (attempted, failed int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.classes {
		attempted += c.Attempted
		failed += c.Failed
	}
	return attempted, failed
}

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// closedLoop runs workers closed-loop clients until the deadline: each
// calls op, which sends one logical operation and waits for its reply
// before returning. Request failures are recorded by op, never fatal.
func closedLoop(workers int, until time.Time, rec *recorder, op func(worker int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			due := time.Now()
			for time.Now().Before(until) {
				// In a closed loop the next request is due as soon as
				// the previous reply is in: lateness is the generator's
				// own overhead.
				rec.lag(time.Since(due))
				op(w)
				due = time.Now()
			}
		}(w)
	}
	wg.Wait()
}

// openLoop sends requests on a fixed schedule of rate per second from
// start until until, spread over workers goroutines; op gets the
// request's index in the schedule. Each request is timed from its due
// time, so a stall also charges the requests queued behind it; lateness
// (send time minus due time) is recorded.
func openLoop(workers int, rate float64, start, until time.Time, rec *recorder, op func(worker int, i int64, due time.Time)) {
	interval := time.Duration(float64(time.Second) / rate)
	var (
		mu   sync.Mutex
		next int64
	)
	claim := func() (int64, time.Time, bool) {
		mu.Lock()
		defer mu.Unlock()
		i := next
		next++
		due := start.Add(time.Duration(i) * interval)
		return i, due, due.Before(until)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i, due, ok := claim()
				if !ok {
					return
				}
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				rec.lag(time.Since(due))
				op(w, i, due)
			}
		}(w)
	}
	wg.Wait()
}
