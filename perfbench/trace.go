package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"image"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"milret"
	"milret/internal/server"
)

// Span names. Each marks one call into a layer's public surface, made
// from this benchmark's own wrappers; nothing inside the program is
// instrumented.
const (
	spanClient    = "client"          // load generator round trip
	spanHandler   = "server.handler"  // server.Server.ServeHTTP
	spanTrain     = "core.train"      // Backend.TrainCachedContext
	spanTrainMany = "core.train_many" // Backend.TrainManyContext
	spanRetrieve  = "index.retrieve"  // Backend.Retrieve
	spanBatch     = "index.batch"     // Backend.RetrieveBatch
	spanUpdate    = "retrieval.update"
	spanFlush     = "store.flush"
	spanRPC       = "remote.rpc"   // one shard RPC, client side
	spanShard     = "remote.shard" // remote.ShardServer.ServeHTTP
)

// Headers carrying a traced request's identity across the loopback hops.
const (
	hdrReq    = "X-Perfbench-Req"
	hdrParent = "X-Perfbench-Parent"
)

// span is one recorded interval; times are nanoseconds since the
// tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    string `json:"req,omitempty"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span of a run in memory; write dumps them when the
// run ends.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

func (t *tracer) add(s span) {
	if s.ID == 0 {
		s.ID = t.next.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanRef is the traced request and enclosing span a context carries.
type spanRef struct {
	req string
	id  int64
}

type refKey struct{}

func refFrom(ctx context.Context) (spanRef, bool) {
	r, ok := ctx.Value(refKey{}).(spanRef)
	return r, ok
}

// open is a started span; a nil *open (untraced context) is a no-op.
type open struct {
	t *tracer
	s span
}

// begin starts a child of the context's span. Contexts of untraced
// requests carry no span, and then begin records nothing.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, *open) {
	if t == nil {
		return ctx, nil
	}
	ref, ok := refFrom(ctx)
	if !ok {
		return ctx, nil
	}
	o := &open{t: t, s: span{ID: t.next.Add(1), Parent: ref.id, Req: ref.req, Name: name, Start: t.at(time.Now())}}
	return context.WithValue(ctx, refKey{}, spanRef{req: ref.req, id: o.s.ID}), o
}

func (o *open) end(attr string, bytes int64) {
	if o == nil {
		return
	}
	o.s.End = o.t.at(time.Now())
	o.s.Attr = attr
	o.s.Bytes = bytes
	o.t.add(o.s)
}

// timeCall records fn as a span that belongs to no request: the layer
// calls that take no context (mutations, flushes, set-up steps).
func (t *tracer) timeCall(name, attr string, fn func() error) error {
	start := time.Now()
	err := fn()
	if t != nil {
		t.add(span{Name: name, Attr: attr, Start: t.at(start), End: t.at(time.Now())})
	}
	return err
}

// handler wraps an HTTP layer (server.Server or remote.ShardServer): a
// request carrying a trace ID gets a span named name, and its context
// carries that span to the layers below.
func (t *tracer) handler(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := r.Header.Get(hdrReq)
		if req == "" {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
		ctx, o := t.begin(context.WithValue(r.Context(), refKey{}, spanRef{req: req, id: parent}), name)
		next.ServeHTTP(w, r.WithContext(ctx))
		o.end(r.URL.Path, 0)
	})
}

// rpcTransport wraps the shard RPC client's transport: an RPC made on
// behalf of a traced request gets a span and forwards the trace ID to
// the shard server; the span's Bytes counts both directions.
type rpcTransport struct {
	base http.RoundTripper
	t    *tracer
}

func (rt rpcTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ctx, o := rt.t.begin(r.Context(), spanRPC)
	if o == nil {
		return rt.base.RoundTrip(r)
	}
	r = r.Clone(ctx)
	r.Header.Set(hdrReq, o.s.Req)
	r.Header.Set(hdrParent, strconv.FormatInt(o.s.ID, 10))
	sent := max(r.ContentLength, 0)
	resp, err := rt.base.RoundTrip(r)
	if err != nil {
		o.end("error", sent)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, o: o, n: sent}
	return resp, nil
}

// countingBody ends its RPC span when the caller closes the reply.
type countingBody struct {
	io.ReadCloser
	o    *open
	n    int64
	once sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.o.end("", b.n) })
	return err
}

// timedBackend is a server.Backend that times every call into the layer
// below it (a *milret.Database or a *remote.Coordinator) and counts the
// training runs it causes.
type timedBackend struct {
	server.Backend
	t *tracer
	// trainings counts calls that ran the optimizer (cache misses and
	// bypasses).
	trainings *atomic.Int64
}

func (b *timedBackend) count(outs ...milret.CacheOutcome) {
	for _, o := range outs {
		if o == milret.CacheMiss || o == milret.CacheBypassed || o == milret.CacheDisabled {
			b.trainings.Add(1)
		}
	}
}

func (b *timedBackend) TrainCachedContext(ctx context.Context, pos, neg []string, opts milret.TrainOptions) (*milret.Concept, milret.CacheOutcome, error) {
	ctx, o := b.t.begin(ctx, spanTrain)
	c, out, err := b.Backend.TrainCachedContext(ctx, pos, neg, opts)
	if err == nil {
		b.count(out)
	}
	o.end(out.String(), 0)
	return c, out, err
}

func (b *timedBackend) TrainManyContext(ctx context.Context, specs []milret.QuerySpec) ([]*milret.Concept, []milret.CacheOutcome, error) {
	ctx, o := b.t.begin(ctx, spanTrainMany)
	cs, outs, err := b.Backend.TrainManyContext(ctx, specs)
	b.count(outs...)
	o.end(fmt.Sprint(len(specs)), 0)
	return cs, outs, err
}

func (b *timedBackend) Retrieve(ctx context.Context, c *milret.Concept, k int, exclude []string, recall float64) ([]milret.Result, error) {
	ctx, o := b.t.begin(ctx, spanRetrieve)
	rs, err := b.Backend.Retrieve(ctx, c, k, exclude, recall)
	o.end(recallAttr(recall), 0)
	return rs, err
}

func (b *timedBackend) RetrieveBatch(ctx context.Context, cs []*milret.Concept, k int, exclude []string, recall float64) ([][]milret.Result, error) {
	ctx, o := b.t.begin(ctx, spanBatch)
	rs, err := b.Backend.RetrieveBatch(ctx, cs, k, exclude, recall)
	o.end(recallAttr(recall), 0)
	return rs, err
}

func (b *timedBackend) UpdateImage(id, label string, img image.Image) error {
	attr := "pixels"
	if img == nil {
		attr = "label"
	}
	return b.t.timeCall(spanUpdate, attr, func() error { return b.Backend.UpdateImage(id, label, img) })
}

func (b *timedBackend) Flush() error {
	return b.t.timeCall(spanFlush, "", b.Backend.Flush)
}

func recallAttr(recall float64) string {
	if recall > 0 {
		return "filtered"
	}
	return "exact"
}
