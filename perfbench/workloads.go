package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"milret"
	"milret/internal/core"
	"milret/internal/server"
	"milret/internal/synth"
)

var one = 1.0

// Feedback sessions follow §4.1: three positives and three negatives to
// start, then each round adds the top false positives as negatives.
const (
	feedbackRounds = 3
	feedbackPos    = 3
	feedbackNeg    = 3
	feedbackFP     = 3
)

// feedback runs simulated relevance-feedback sessions on nproc clients,
// closed loop. Every query is a fresh fingerprint, so every query
// trains. A round is three steps: the query; a review, where the user
// compares the session's rankings so far (a batch of its concepts); and
// a tag, where the user labels the round's top true positive (a label
// update). The clients take each step together, so reviews and tags
// never queue behind the other client's training: their latencies
// measure the batch and mutation paths, not CPU contention.
func (r *runner) feedback() error {
	if err := r.runSetups(r.buildLocal); err != nil {
		return err
	}
	cl := newClient(r.st.base, r.nproc, r.tr)
	defer cl.close()
	r.rec = newRecorder(0)
	var next atomic.Int64
	bar := newBarrier(r.nproc)
	r.measure(func() {
		start := time.Now()
		until := start.Add(r.duration())
		going := func() bool { return time.Now().Before(until) }
		closedLoop(r.nproc, until, r.rec, func(int) {
			var s *session
			for bar.await(going) {
				due := time.Now()
				if s == nil {
					s = r.newSession(next.Add(1) - 1)
				}
				r.rec.lag(time.Since(due))
				ok := s.query(r, cl)
				bar.await(nil)
				ok = ok && s.review(r, cl)
				bar.await(nil)
				if !ok || s.tag(r, cl) {
					s = nil
				}
			}
		})
		r.elapsed = time.Since(start)
	})
	return nil
}

// session is one simulated user's feedback session.
type session struct {
	id       int64
	target   string
	pos, neg []string
	round    int
	last     server.QueryResponse
	concepts []server.ConceptGeometry
}

func (r *runner) newSession(id int64) *session {
	m := newSplitmix(r.o.seed, 0xfeed0000+uint64(id))
	cats := synth.SceneCategories
	s := &session{id: id, target: cats[int(id)%len(cats)]}
	used := map[string]bool{}
	draw := func(ids []string) string {
		for {
			if id := ids[m.intn(len(ids))]; !used[id] {
				used[id] = true
				return id
			}
		}
	}
	for len(s.pos) < feedbackPos {
		s.pos = append(s.pos, draw(r.c.byCat[s.target]))
	}
	for len(s.neg) < feedbackNeg {
		s.neg = append(s.neg, draw(r.c.byCat[cats[(int(id)+1+m.intn(len(cats)-1))%len(cats)]]))
	}
	return s
}

func (s *session) examples() []string { return append(append([]string(nil), s.pos...), s.neg...) }

func (s *session) what(step string) string {
	return fmt.Sprintf("session %d round %d %s", s.id, s.round, step)
}

// query trains on the session's examples and ranks; false means the
// request failed and the session is abandoned.
func (s *session) query(r *runner, cl *client) bool {
	q := server.QueryRequest{Positives: s.pos, Negatives: s.neg, K: r.sz.k, ExcludeExamples: true, ReturnConcept: true}
	if s.round == feedbackRounds-1 {
		q.Recall = &one // bit-identical to the exact scan; the review checks it
	}
	resp, d, traced, err := cl.query(q)
	if err == nil {
		err = r.chk.note(s.what("query"), r.checkQuery(resp, s.examples(), "miss"))
	}
	if err == nil && resp.Concept == nil {
		err = r.chk.note(s.what("query"), fmt.Errorf("no concept returned"))
	}
	r.rec.add("query", d, traced, err, 1)
	if err != nil {
		return false
	}
	s.last = resp
	s.concepts = append(s.concepts, *resp.Concept)
	return true
}

// review ranks every concept of the session so far in one batch; the
// newest entry replays this round's concept through the exact batched
// scan and must reproduce the query's ranking.
func (s *session) review(r *runner, cl *client) bool {
	ex := s.examples()
	b, d, traced, err := cl.batch(server.BatchRetrieveRequest{Concepts: s.concepts, K: r.sz.k, Exclude: ex})
	if err == nil {
		err = r.chk.note(s.what("review"), r.checkBatch(b, len(s.concepts), ex))
	}
	if err == nil {
		err = r.chk.note(s.what("review replay"), sameRanking(b.Results[len(s.concepts)-1], s.last.Results))
	}
	r.rec.add("batch", d, traced, err, 0)
	return err == nil
}

// tag labels the round's top true positive and adds the top false
// positives as negatives; true means the session is over: its last
// round, or a head without false positives, leaves nothing to learn
// from (§4.1), and the ranking is final.
func (s *session) tag(r *runner, cl *client) bool {
	for _, hit := range s.last.Results {
		if r.c.category[hit.ID] == s.target {
			r.labelPut(cl, r.rec, hit.ID, fmt.Sprintf("%s@s%d", s.target, s.id), time.Time{})
			break
		}
	}
	added := 0
	for _, hit := range s.last.Results {
		if s.round < feedbackRounds-1 && added < feedbackFP && r.c.category[hit.ID] != s.target {
			s.neg = append(s.neg, hit.ID)
			added++
		}
	}
	s.round++
	if added == 0 {
		r.addAP(averagePrecision(s.last.Results, r.c.category, s.target))
		return true
	}
	return false
}

// barrier lines nproc clients up at each step. The last to arrive
// decides, for all of them, whether to go on.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived int
	gen     int
	verdict bool
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until every client arrived and returns the verdict of
// decide (true when decide is nil).
func (b *barrier) await(decide func() bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		b.verdict = decide == nil || decide()
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
		return b.verdict
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	return b.verdict
}

// catalog serves a fixed pool of canned queries over a 10k-scene
// paper-geometry corpus: every measured query is a cache hit, so the
// scan is the work. An open-loop phase of interactive users (single
// queries and label updates at a fixed rate) checks the p90 latency
// limit and gives the mutation latencies; the closed-loop phase that
// follows adds 4-query batches and gives the query and batch latencies
// and the throughput.
func (r *runner) catalog() error {
	pool := cannedPool(r.c, r.o.seed, r.sz.pool, r.sz.npos, r.sz.nneg)
	if err := r.runSetups(func(dir string) (*stack, error) { return r.buildWarm(dir, r.buildLocal, pool) }); err != nil {
		return err
	}
	cl := newClient(r.st.base, r.nproc, r.tr)
	defer cl.close()
	r.open = newRecorder(r.sz.limitMS)
	r.rec = newRecorder(0)
	// Shares in per mille: exact queries, recall 1.0 queries, 4-query
	// batches, label updates.
	openWeights := []int{100, 50, 0, 850}
	closedWeights := []int{300, 150, 270, 280}
	op := func(m *splitmix, rec *recorder, weights []int, due time.Time) {
		switch m.pick(weights) {
		case 0:
			r.query(cl, rec, "query", pool[m.intn(len(pool))], nil, "hit", due)
		case 1:
			r.query(cl, rec, "query", pool[m.intn(len(pool))], &one, "hit", due)
		case 2:
			r.cannedBatch(cl, rec, pool, 4, m, true, due)
		default:
			id := r.c.ids[m.intn(len(r.c.ids))]
			r.labelPut(cl, rec, id, fmt.Sprintf("%s@%d", r.c.category[id], m.intn(1000)), due)
		}
	}
	r.measure(func() {
		total := r.duration()
		start := time.Now()
		openUntil := start.Add(time.Duration(float64(total) * r.sz.openShare))
		openLoop(1, r.sz.rate, start, openUntil, r.open, func(_ int, i int64, due time.Time) {
			op(newSplitmix(r.o.seed, 0xca7a0000+uint64(i)), r.open, openWeights, due)
		})
		closedStart := time.Now()
		r.closed(start.Add(total), r.rec, 0xc1053d, func(m *splitmix, _ int) { op(m, r.rec, closedWeights, time.Time{}) })
		r.elapsed = time.Since(closedStart)
	})
	return nil
}

// churn mixes reads with writes on a 2k-scene sweep-point corpus, closed
// loop: label updates, pixel updates (re-featurize, tombstone, append;
// enough of them to cross the auto-compaction threshold several times),
// cache-hit queries and batches, and re-key queries whose examples were
// just re-pixeled, so they retrain. Each client owns the images it
// mutates, so the final labels are known for the durability check.
func (r *runner) churn() error {
	pool := cannedPool(r.c, r.o.seed, r.sz.pool, r.sz.npos, r.sz.nneg)
	var repl map[string][]string
	if err := r.runSetups(func(dir string) (*stack, error) {
		st, err := r.buildWarm(dir, r.buildLocal, pool)
		if err == nil {
			repl, err = replacementPNGs(r.o.seed, r.sz.replace)
		}
		return st, err
	}); err != nil {
		return err
	}
	example := exampleSet(pool)
	mine := make([][]*canned, r.nproc)
	for j, p := range pool {
		mine[j%r.nproc] = append(mine[j%r.nproc], p)
	}
	owned := make([][]string, r.nproc)
	for i, id := range r.c.ids {
		if !example[id] {
			owned[i%r.nproc] = append(owned[i%r.nproc], id)
		}
	}
	expect := make([]map[string]string, r.nproc)
	for w := range expect {
		expect[w] = map[string]string{}
	}
	seq := make([]int, r.nproc)
	pixels := func(cl *client, w int, m *splitmix, id string) {
		cat := r.c.category[id]
		seq[w]++
		label := fmt.Sprintf("%s@w%dn%d", cat, w, seq[w])
		img := repl[cat][m.intn(len(repl[cat]))]
		d, err := cl.put(id, server.UpdateImageRequest{Label: label, PNGBase64: img})
		r.rec.add("mutation.pixels", d, false, err, 0)
		if err == nil {
			expect[w][id] = label
		}
	}
	cl := newClient(r.st.base, r.nproc, r.tr)
	defer cl.close()
	r.rec = newRecorder(0)
	// Shares in per mille: pixel updates, label updates, queries, 3-query
	// batches, re-key (re-pixel a canned query's example, then query it).
	weights := []int{330, 170, 345, 147, 8}
	r.measure(func() {
		start := time.Now()
		r.closed(start.Add(r.duration()), r.rec, 0xc4a2, func(m *splitmix, w int) {
			switch m.pick(weights) {
			case 0:
				pixels(cl, w, m, owned[w][m.intn(len(owned[w]))])
			case 1:
				id := owned[w][m.intn(len(owned[w]))]
				seq[w]++
				label := fmt.Sprintf("%s@w%dn%d", r.c.category[id], w, seq[w])
				if r.labelPut(cl, r.rec, id, label, time.Time{}) == nil {
					expect[w][id] = label
				}
			case 2:
				recall := (*float64)(nil)
				if m.intn(2) == 0 {
					recall = &one
				}
				r.query(cl, r.rec, "query", pool[m.intn(len(pool))], recall, "", time.Time{})
			case 3:
				r.cannedBatch(cl, r.rec, pool, 3, m, false, time.Time{})
			default:
				p := mine[w][m.intn(len(mine[w]))]
				pixels(cl, w, m, p.pos[m.intn(len(p.pos))])
				r.query(cl, r.rec, "query.rekey", p, nil, "", time.Time{})
			}
		})
		r.elapsed = time.Since(start)
	})
	all := map[string]string{}
	for _, e := range expect {
		for id, label := range e {
			all[id] = label
		}
	}
	r.checkDurable(all)
	return nil
}

// checkDurable reopens the flushed store beside the live database: both
// must hold every image and agree with the acknowledged labels.
func (r *runner) checkDurable(labels map[string]string) {
	reopened, err := milret.LoadDatabase(r.st.storePath, r.sz.geometry())
	if err != nil {
		r.chk.note("reload after churn", err)
		return
	}
	defer reopened.Close()
	if live, got := r.st.db.Len(), reopened.Len(); live != len(r.c.ids) || got != live {
		r.chk.note("reload after churn", fmt.Errorf("live %d images, reloaded %d, corpus %d", live, got, len(r.c.ids)))
	}
	for id, want := range labels {
		live, _ := r.st.db.Label(id)
		got, _ := reopened.Label(id)
		if live != want || got != want {
			r.chk.note("reload after churn", fmt.Errorf("image %s: acknowledged label %q, live %q, reloaded %q", id, want, live, got))
		}
	}
	r.chk.note("reload after churn", nil)
}

// fanout serves the churn corpus split over two loopback shard servers
// behind a coordinator: cache-hit queries and batches, a small share of
// novel queries (the coordinator fetches example bags over RPC and
// trains), and label updates routed to the owning shard.
func (r *runner) fanout() error {
	pool := cannedPool(r.c, r.o.seed, r.sz.pool, r.sz.npos, r.sz.nneg)
	if err := r.runSetups(func(dir string) (*stack, error) { return r.buildWarm(dir, r.buildFanout, pool) }); err != nil {
		return err
	}
	// The coordinator's rankings must equal single-process rankings of
	// the same concepts over the unsharded store.
	evals, _ := core.TrainerEvals()
	for i, p := range pool {
		c, _, err := r.st.ref.TrainCached(p.pos, p.neg, milret.TrainOptions{Mode: milret.ConstrainedWeights})
		if err != nil {
			return fmt.Errorf("reference training: %w", err)
		}
		r.chk.note(fmt.Sprintf("canned query %d against single-process", i),
			sameRanking(p.exact, wireResults(r.st.ref.RetrieveExcluding(c, r.sz.k, nil))))
	}
	after, _ := core.TrainerEvals()
	r.evalsOutside += after - evals
	examples := exampleSet(pool)
	cl := newClient(r.st.base, r.nproc, r.tr)
	defer cl.close()
	r.rec = newRecorder(0)
	// Shares in per mille: queries, 3-query batches, novel queries, label
	// updates.
	weights := []int{600, 260, 20, 120}
	r.measure(func() {
		start := time.Now()
		r.closed(start.Add(r.duration()), r.rec, 0xfa40, func(m *splitmix, w int) {
			switch m.pick(weights) {
			case 0:
				recall := (*float64)(nil)
				if m.intn(2) == 0 {
					recall = &one
				}
				r.query(cl, r.rec, "query", pool[m.intn(len(pool))], recall, "hit", time.Time{})
			case 1:
				r.cannedBatch(cl, r.rec, pool, 3, m, true, time.Time{})
			case 2:
				r.novelQuery(cl, m, examples)
			default:
				id := r.c.ids[m.intn(len(r.c.ids))]
				r.labelPut(cl, r.rec, id, fmt.Sprintf("%s@%d", r.c.category[id], m.intn(1000)), time.Time{})
			}
		})
		r.elapsed = time.Since(start)
	})
	return nil
}

// novelQuery sends a query no one asked before, which the coordinator
// trains after fetching the example bags, and checks its ranking against
// the single-process scan of the returned concept.
func (r *runner) novelQuery(cl *client, m *splitmix, taken map[string]bool) {
	cats := synth.SceneCategories
	ci := m.intn(len(cats))
	draw := func(cat string) string {
		for {
			ids := r.c.byCat[cat]
			if id := ids[m.intn(len(ids))]; !taken[id] {
				return id
			}
		}
	}
	pos := []string{draw(cats[ci]), draw(cats[ci])}
	for pos[1] == pos[0] {
		pos[1] = draw(cats[ci])
	}
	neg := []string{draw(cats[(ci+1+m.intn(len(cats)-1))%len(cats)])}
	p := &canned{pos: pos, neg: neg, target: cats[ci]}
	resp, ok := r.query(cl, r.rec, "query.novel", p, nil, "miss", time.Time{})
	if !ok {
		return
	}
	err := fmt.Errorf("no concept returned")
	if resp.Concept != nil {
		var c *milret.Concept
		if c, err = milret.NewConcept(resp.Concept.Point, resp.Concept.Weights); err == nil {
			err = sameRanking(resp.Results, wireResults(r.st.ref.RetrieveExcluding(c, r.sz.k, nil)))
		}
	}
	r.chk.note("novel query against single-process", err)
}

// buildWarm runs build, then trains the canned pool through the served
// stack: part of set-up.
func (r *runner) buildWarm(dir string, build func(string) (*stack, error), pool []*canned) (*stack, error) {
	st, err := build(dir)
	if err != nil {
		return nil, err
	}
	cl := newClient(st.base, 1, r.tr)
	cl.traceAll = true
	defer cl.close()
	if err := r.warm(cl, pool, r.sz.k); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// closed runs the closed loop with one deterministic choice stream per
// client.
func (r *runner) closed(until time.Time, rec *recorder, stream uint64, op func(m *splitmix, w int)) {
	ms := make([]*splitmix, r.nproc)
	for w := range ms {
		ms[w] = newSplitmix(r.o.seed, stream<<8+uint64(w))
	}
	closedLoop(r.nproc, until, rec, func(w int) { op(ms[w], w) })
}

// latency is d for a closed-loop request and the time since the due time
// for an open-loop one.
func latency(d time.Duration, due time.Time) time.Duration {
	if due.IsZero() {
		return d
	}
	return time.Since(due)
}

// query sends one example-based query for p and checks the reply.
// want is the cache disposition it must report: "hit" also requires the
// ranking recorded at set-up, "miss" (a query no one asked before) also
// asks for the trained concept; "" expects neither.
func (r *runner) query(cl *client, rec *recorder, class string, p *canned, recall *float64, want string, due time.Time) (server.QueryResponse, bool) {
	q := server.QueryRequest{Positives: p.pos, Negatives: p.neg, K: r.sz.k, Recall: recall, ReturnConcept: want == "miss"}
	resp, d, traced, err := cl.query(q)
	if err == nil {
		err = r.chk.note(class, r.checkQuery(resp, nil, want))
	}
	if err == nil && want == "hit" {
		// Hits at either recall must reproduce the exact ranking.
		err = r.chk.note(class+" vs set-up ranking", sameRanking(resp.Results, p.exact))
	}
	rec.add(class, latency(d, due), traced, err, 1)
	if err != nil {
		return resp, false
	}
	r.addAP(averagePrecision(resp.Results, r.c.category, p.target))
	return resp, true
}

// cannedBatch sends n distinct canned queries as one batch.
func (r *runner) cannedBatch(cl *client, rec *recorder, pool []*canned, n int, m *splitmix, strict bool, due time.Time) {
	n = min(n, len(pool))
	picked := make([]*canned, 0, n)
	seen := map[int]bool{}
	for len(picked) < n {
		if j := m.intn(len(pool)); !seen[j] {
			seen[j] = true
			picked = append(picked, pool[j])
		}
	}
	req := server.BatchRetrieveRequest{K: r.sz.k}
	for _, p := range picked {
		req.Queries = append(req.Queries, server.BatchQuery{Positives: p.pos, Negatives: p.neg})
	}
	b, d, traced, err := cl.batch(req)
	if err == nil {
		err = r.chk.note("batch", r.checkBatch(b, n, nil))
	}
	for i := 0; err == nil && strict && i < n; i++ {
		if b.QueryCache[i] != "hit" {
			err = r.chk.note("batch", fmt.Errorf("entry %d: cache %q, want hit", i, b.QueryCache[i]))
		} else {
			err = r.chk.note("batch vs set-up ranking", sameRanking(b.Results[i], picked[i].exact))
		}
	}
	rec.add("batch", latency(d, due), traced, err, n)
	if err != nil {
		return
	}
	for i, p := range picked {
		r.addAP(averagePrecision(b.Results[i], r.c.category, p.target))
	}
}

func (r *runner) labelPut(cl *client, rec *recorder, id, label string, due time.Time) error {
	d, err := cl.put(id, server.UpdateImageRequest{Label: label})
	rec.add("mutation.label", latency(d, due), false, err, 0)
	return err
}

// checkQuery checks a /v1/query reply: a well-formed ranking without the
// excluded images and, when wantCache is set, that cache disposition.
func (r *runner) checkQuery(resp server.QueryResponse, exclude []string, wantCache string) error {
	if err := checkRanking(resp.Results, r.expect(exclude), r.known, exclude); err != nil {
		return err
	}
	if wantCache != "" && resp.Cache != wantCache {
		return fmt.Errorf("cache %q, want %q", resp.Cache, wantCache)
	}
	return nil
}

func (r *runner) checkBatch(b server.BatchRetrieveResponse, n int, exclude []string) error {
	if len(b.Results) != n {
		return fmt.Errorf("%d rankings for %d entries", len(b.Results), n)
	}
	for i, rs := range b.Results {
		if err := checkRanking(rs, r.expect(exclude), r.known, exclude); err != nil {
			return fmt.Errorf("entry %d: %w", i, err)
		}
	}
	return nil
}

// expect is a ranking's length: k, or every image not excluded when the
// corpus is smaller.
func (r *runner) expect(exclude []string) int {
	return min(r.sz.k, len(r.c.ids)-len(exclude))
}

func (r *runner) duration() time.Duration {
	return time.Duration(r.o.seconds * float64(time.Second))
}
