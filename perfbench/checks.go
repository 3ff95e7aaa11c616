package main

import (
	"fmt"
	"math"
	"sync"

	"milret"
	"milret/internal/server"
)

// checker collects output-check failures; any failure fails the run.
type checker struct {
	mu       sync.Mutex
	failures []string // the first few, for the report
	checked  int64
	failed   int64
}

// note records the outcome of one check.
func (c *checker) note(what string, err error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checked++
	if err != nil {
		c.failed++
		if len(c.failures) < 20 {
			c.failures = append(c.failures, fmt.Sprintf("%s: %v", what, err))
		}
	}
	return err
}

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed == 0
}

// checkRanking verifies one reply is a well-formed ranking: want results
// (k, or every eligible image when fewer), known unique IDs, none of the
// excluded ones, finite non-negative distances in (distance, ID) order.
func checkRanking(rs []server.QueryResult, want int, known func(string) bool, exclude []string) error {
	if len(rs) != want {
		return fmt.Errorf("%d results, want %d", len(rs), want)
	}
	skip := make(map[string]bool, len(exclude))
	for _, id := range exclude {
		skip[id] = true
	}
	seen := make(map[string]bool, len(rs))
	for i, r := range rs {
		switch {
		case !known(r.ID):
			return fmt.Errorf("result %d: unknown image %q", i, r.ID)
		case seen[r.ID]:
			return fmt.Errorf("result %d: duplicate image %q", i, r.ID)
		case skip[r.ID]:
			return fmt.Errorf("result %d: excluded image %q", i, r.ID)
		case math.IsNaN(r.Distance) || math.IsInf(r.Distance, 0) || r.Distance < 0:
			return fmt.Errorf("result %d: distance %v", i, r.Distance)
		}
		seen[r.ID] = true
		if i > 0 {
			p := rs[i-1]
			if p.Distance > r.Distance || (p.Distance == r.Distance && p.ID > r.ID) {
				return fmt.Errorf("results %d and %d out of order: (%v, %s) then (%v, %s)", i-1, i, p.Distance, p.ID, r.Distance, r.ID)
			}
		}
	}
	return nil
}

// sameRanking requires got to list exactly want's images at bit-identical
// distances. Labels are metadata that label updates change, so they are
// not compared.
func sameRanking(got, want []server.QueryResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
			return fmt.Errorf("result %d is (%s, %v), want (%s, %v)", i, got[i].ID, got[i].Distance, want[i].ID, want[i].Distance)
		}
	}
	return nil
}

// wireResults renders library results as the wire form.
func wireResults(rs []milret.Result) []server.QueryResult {
	out := make([]server.QueryResult, len(rs))
	for i, r := range rs {
		out[i] = server.QueryResult{ID: r.ID, Label: r.Label, Distance: r.Distance}
	}
	return out
}

// averagePrecision scores a ranking against the ground-truth category of
// each image (from the generated corpus, not the served labels): the
// mean of precision at each relevant rank, over the relevant results
// listed.
func averagePrecision(rs []server.QueryResult, category map[string]string, target string) float64 {
	var sum float64
	found := 0
	for i, r := range rs {
		if category[r.ID] == target {
			found++
			sum += float64(found) / float64(i+1)
		}
	}
	if found == 0 {
		return 0
	}
	return sum / float64(found)
}
