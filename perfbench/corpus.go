package main

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"image"
	"image/png"
	"math/rand"
	"sync"
	"time"

	"milret"
	"milret/internal/server"
	"milret/internal/synth"
)

// splitmix is a small allocation-free generator for per-request choices.
type splitmix struct{ s uint64 }

func newSplitmix(seed int64, stream uint64) *splitmix {
	m := &splitmix{s: uint64(seed) ^ stream*0xd1b54a32d192ed03}
	m.next()
	return m
}

func (m *splitmix) next() uint64 {
	m.s += 0x9e3779b97f4a7c15
	z := m.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (m *splitmix) intn(n int) int { return int(m.next() % uint64(n)) }

// pick draws an index with probability proportional to weights.
func (m *splitmix) pick(weights []int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	x := m.intn(total)
	for i, w := range weights {
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// corpus is a seeded collection of synthetic natural scenes (the five
// categories of the paper's §4.1) with each image's ground truth.
type corpus struct {
	seed     int64
	ids      []string
	category map[string]string
	byCat    map[string][]string
	pos      map[string][2]int // id → (category index, index within category)
}

func newCorpus(seed int64, perCat int) *corpus {
	c := &corpus{seed: seed, category: map[string]string{}, byCat: map[string][]string{}, pos: map[string][2]int{}}
	for ci, cat := range synth.SceneCategories {
		for i := 0; i < perCat; i++ {
			id := fmt.Sprintf("scene-%s-%04d", cat, i)
			c.ids = append(c.ids, id)
			c.category[id] = cat
			c.byCat[cat] = append(c.byCat[cat], id)
			c.pos[id] = [2]int{ci, i}
		}
	}
	return c
}

func (c *corpus) known(id string) bool { _, ok := c.category[id]; return ok }

// sceneImage renders one scene of category ci; the pixels depend only on
// (seed, ci, i), so images can be generated in any order or in parallel.
func sceneImage(seed int64, ci, i int) *image.RGBA {
	m := newSplitmix(seed, uint64(ci+1)<<32|uint64(i))
	r := rand.New(rand.NewSource(int64(m.next() >> 1)))
	return synth.SceneGenerators[synth.SceneCategories[ci]](r).ToRGBA()
}

// replacementPNGs renders n fresh scenes per category, PNG-encoded in
// base64 for pixel updates, keyed by category.
func replacementPNGs(seed int64, n int) (map[string][]string, error) {
	out := map[string][]string{}
	for ci, cat := range synth.SceneCategories {
		for i := 0; i < n; i++ {
			var buf bytes.Buffer
			if err := png.Encode(&buf, sceneImage(^seed, ci, i)); err != nil {
				return nil, fmt.Errorf("encode replacement: %w", err)
			}
			out[cat] = append(out[cat], base64.StdEncoding.EncodeToString(buf.Bytes()))
		}
	}
	return out, nil
}

// ingest generates every corpus image and adds it through the public
// ingest path, Database.AddImage, from workers goroutines; each call's
// duration is recorded as feature work.
func (r *runner) ingest(db *milret.Database, c *corpus, workers int) error {
	var wg sync.WaitGroup
	errs := make([]error, workers)
	times := make([][]float64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(c.ids); i += workers {
				id := c.ids[i]
				p := c.pos[id]
				img := sceneImage(c.seed, p[0], p[1])
				start := time.Now()
				if err := db.AddImage(id, c.category[id], img); err != nil {
					errs[w] = fmt.Errorf("add %s: %w", id, err)
					return
				}
				times[w] = append(times[w], ms(time.Since(start)))
			}
		}(w)
	}
	wg.Wait()
	for w := range errs {
		if errs[w] != nil {
			return errs[w]
		}
		r.setup.addMS = append(r.setup.addMS, times[w]...)
	}
	return nil
}

// canned is one query of a fixed pool, trained once at set-up and then
// served from the concept cache.
type canned struct {
	pos, neg []string
	target   string
	// exact is the ranking recorded at set-up: the exact scan of the
	// trained concept, no exclusions.
	exact []server.QueryResult
}

// cannedPool draws n queries with disjoint examples: npos images of one
// category (cycling through the categories) and nneg of others.
func cannedPool(c *corpus, seed int64, n, npos, nneg int) []*canned {
	m := newSplitmix(seed, 0xca11ed)
	used := map[string]bool{}
	draw := func(ids []string) string {
		for {
			id := ids[m.intn(len(ids))]
			if !used[id] {
				used[id] = true
				return id
			}
		}
	}
	cats := synth.SceneCategories
	pool := make([]*canned, n)
	for q := range pool {
		target := cats[q%len(cats)]
		p := &canned{target: target}
		for len(p.pos) < npos {
			p.pos = append(p.pos, draw(c.byCat[target]))
		}
		for len(p.neg) < nneg {
			other := cats[(q%len(cats)+1+m.intn(len(cats)-1))%len(cats)]
			p.neg = append(p.neg, draw(c.byCat[other]))
		}
		pool[q] = p
	}
	return pool
}

// exampleSet is every example image of the pool.
func exampleSet(pool []*canned) map[string]bool {
	set := map[string]bool{}
	for _, p := range pool {
		for _, id := range append(append([]string(nil), p.pos...), p.neg...) {
			set[id] = true
		}
	}
	return set
}

// warm sends each canned query once, so it trains and enters the concept
// cache, and records its exact ranking.
func (r *runner) warm(cl *client, pool []*canned, k int) error {
	for i, p := range pool {
		resp, _, _, err := cl.query(server.QueryRequest{Positives: p.pos, Negatives: p.neg, K: k})
		if err != nil {
			return fmt.Errorf("warm canned query %d: %w", i, err)
		}
		what := fmt.Sprintf("set-up canned query %d", i)
		if r.chk.note(what, checkRanking(resp.Results, k, r.known, nil)) != nil {
			continue
		}
		if resp.Cache != "miss" {
			r.chk.note(what, fmt.Errorf("cache %q, want miss", resp.Cache))
		}
		p.exact = resp.Results
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
