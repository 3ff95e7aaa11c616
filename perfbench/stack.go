package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"image"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"milret"
	"milret/internal/remote"
	"milret/internal/server"
)

// stack is one served system under test: the front HTTP server and, for
// the fanout workload, the shard servers and coordinator behind it. Every
// listener is an in-process loopback socket.
type stack struct {
	base    string              // front server URL
	backend server.Backend      // what the front server serves
	db      *milret.Database    // local backend; nil behind a coordinator
	coord   *remote.Coordinator // nil for a local backend
	shards  []*milret.Database  // databases the shard servers serve
	ref     *milret.Database    // fanout: the unsharded single-process reference
	// storePath is the store the local database was loaded from (for
	// fanout, the unsharded reference store).
	storePath string

	servers []*http.Server
	wg      sync.WaitGroup
}

// listen serves h on a fresh loopback port and returns its base URL.
func (s *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.servers = append(s.servers, srv)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// close shuts the servers down front first, waits for their goroutines,
// then closes the coordinator and databases.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, srv := range s.servers {
		keep(srv.Shutdown(ctx))
	}
	s.wg.Wait()
	if s.coord != nil {
		keep(s.coord.Close())
	}
	for _, db := range s.shards {
		keep(db.Close())
	}
	for _, db := range []*milret.Database{s.db, s.ref} {
		if db != nil {
			keep(db.Close())
		}
	}
	return first
}

// dbBackend serves a directly opened database as a server.Backend, the
// same adaptation server.New applies, so a timing wrapper can sit between
// the HTTP surface and the database.
type dbBackend struct{ db *milret.Database }

func (b dbBackend) Verification() (milret.VerifyStatus, error) { return b.db.Verification() }
func (b dbBackend) Len() int                                   { return b.db.Len() }
func (b dbBackend) Recall() float64                            { return b.db.Recall() }
func (b dbBackend) Stats() milret.Stats                        { return b.db.Stats() }
func (b dbBackend) Flush() error                               { return b.db.Flush() }
func (b dbBackend) DeleteImage(id string) error                { return b.db.DeleteImage(id) }

func (b dbBackend) Images() ([]server.ImageInfo, error) {
	ids := b.db.IDs()
	infos := make([]server.ImageInfo, 0, len(ids))
	for _, id := range ids {
		label, _ := b.db.Label(id)
		infos = append(infos, server.ImageInfo{ID: id, Label: label})
	}
	return infos, nil
}

func (b dbBackend) Label(id string) (string, bool, error) {
	label, ok := b.db.Label(id)
	return label, ok, nil
}

func (b dbBackend) UpdateImage(id, label string, img image.Image) error {
	return b.db.UpdateImage(id, label, img)
}

func (b dbBackend) TrainCachedContext(ctx context.Context, pos, neg []string, opts milret.TrainOptions) (*milret.Concept, milret.CacheOutcome, error) {
	return b.db.TrainCachedContext(ctx, pos, neg, opts)
}

func (b dbBackend) TrainManyContext(ctx context.Context, specs []milret.QuerySpec) ([]*milret.Concept, []milret.CacheOutcome, error) {
	return b.db.TrainManyContext(ctx, specs)
}

func (b dbBackend) Retrieve(_ context.Context, c *milret.Concept, k int, exclude []string, recall float64) ([]milret.Result, error) {
	return b.db.RetrieveExcluding(c, k, exclude, milret.WithRecall(recall)), nil
}

func (b dbBackend) RetrieveBatch(_ context.Context, cs []*milret.Concept, k int, exclude []string, recall float64) ([][]milret.Result, error) {
	return b.db.RetrieveMany(cs, k, exclude, milret.WithRecall(recall))
}

// client is the load generator's side of the wire: at most nproc
// connections to the front server, JSON in and out.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer // nil when untraced
	seq  atomic.Int64
	// traceAll traces every request (set-up); otherwise every other one.
	traceAll bool
}

// requestTimeout bounds one request; a failed request enters the
// latency percentiles at this value (see recorder.add).
const requestTimeout = 30 * time.Second

func newClient(base string, conns int, tr *tracer) *client {
	return &client{
		hc: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: conns,
				MaxConnsPerHost:     conns,
				DisableCompression:  true,
			},
		},
		base: base,
		tr:   tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call is one request: it encodes body, sends it, reads the whole reply
// and decodes it into out. The returned duration spans send to last
// byte read; traced reports whether the request carried a trace ID.
func (c *client) call(method, path string, body, out any) (d time.Duration, traced bool, err error) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return 0, false, fmt.Errorf("encode %s: %w", path, err)
		}
	}
	req, err := http.NewRequest(method, c.base+path, &buf)
	if err != nil {
		return 0, false, err
	}
	n := c.seq.Add(1)
	traced = c.tr != nil && (c.traceAll || n%2 == 0)
	id := strconv.FormatInt(n, 10)
	if traced {
		req.Header.Set(hdrReq, id)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return time.Since(start), traced, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d = time.Since(start)
	if traced {
		c.tr.add(span{Req: id, Name: spanClient, Attr: path, Start: c.tr.at(start), End: c.tr.at(start.Add(d))})
	}
	if err != nil {
		return d, traced, fmt.Errorf("read %s reply: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return d, traced, fmt.Errorf("%s %s: http %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		return d, traced, fmt.Errorf("decode %s reply: %w", path, err)
	}
	return d, traced, nil
}

func (c *client) query(q server.QueryRequest) (server.QueryResponse, time.Duration, bool, error) {
	var resp server.QueryResponse
	d, traced, err := c.call(http.MethodPost, "/v1/query", q, &resp)
	return resp, d, traced, err
}

func (c *client) batch(q server.BatchRetrieveRequest) (server.BatchRetrieveResponse, time.Duration, bool, error) {
	var resp server.BatchRetrieveResponse
	d, traced, err := c.call(http.MethodPost, "/v1/retrieve/batch", q, &resp)
	return resp, d, traced, err
}

func (c *client) put(id string, q server.UpdateImageRequest) (time.Duration, error) {
	var resp server.ImageInfo
	d, _, err := c.call(http.MethodPut, "/v1/images/"+id, q, &resp)
	if err == nil && (resp.ID != id || resp.Label != q.Label) {
		err = fmt.Errorf("PUT %s acknowledged %+v", id, resp)
	}
	return d, err
}
