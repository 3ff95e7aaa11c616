package main

import "time"

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd is what a user of the service sees, from an untraced run.
func (r *runner) endToEnd() map[string]metric {
	q := r.rec.latencies("query", false)
	b := r.rec.latencies("batch", false)
	mu := r.mutations().latencies("mutation", false)
	return map[string]metric{
		"setup_s":         {median(r.setup.setupS), "s"},
		"query_p50_ms":    {quantile(q, 0.5), "ms"},
		"query_p90_ms":    {quantile(q, 0.9), "ms"},
		"batch_p50_ms":    {quantile(b, 0.5), "ms"},
		"batch_p90_ms":    {quantile(b, 0.9), "ms"},
		"mutation_p50_ms": {quantile(mu, 0.5), "ms"},
		"queries_per_s":   {float64(r.rec.queries) / r.elapsed.Seconds(), "1/s"},
		"mean_ap":         {mean(r.aps), "ratio"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
	}
}

// mutations is the recorder the mutation latencies come from.
func (r *runner) mutations() *recorder {
	if r.open != nil {
		return r.open
	}
	return r.rec
}

// perLayer derives the per-layer metrics of a traced run from its spans
// and from the counters the layers expose (core.TrainerEvals, Stats).
// Request-level figures use /v1/query requests of the measured phase.
//
// It also returns the share of /v1/query time spent in the scan call,
// for the report.
func (r *runner) perLayer() (map[string]metric, float64) {
	spans := r.tr.snapshot()
	kids := map[int64][]span{}
	byReq := map[string][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
		if s.Req != "" {
			byReq[s.Req] = append(byReq[s.Req], s)
		}
	}
	inWindow := func(s span) bool { return s.Start >= r.measureStart }
	dms := func(s span) float64 { return ms(s.dur()) }

	var self, wire []float64
	var trainNS, scanNS, rttNS, rpcBytes int64
	var rpcs, queries int
	for _, ss := range byReq {
		var client, handler *span
		for i := range ss {
			switch ss[i].Name {
			case spanClient:
				client = &ss[i]
			case spanHandler:
				handler = &ss[i]
			}
		}
		if client == nil || handler == nil || client.Attr != "/v1/query" || !inWindow(*client) {
			continue
		}
		queries++
		var covered int64
		for _, k := range kids[handler.ID] {
			covered += k.End - k.Start // backend calls run one after another
			switch k.Name {
			case spanTrain:
				trainNS += k.End - k.Start
			case spanRetrieve:
				scanNS += k.End - k.Start
			}
		}
		self = append(self, ms(time.Duration(handler.End-handler.Start-covered)))
		wire = append(wire, ms(client.dur()-handler.dur()))
		rttNS += client.End - client.Start
		for _, s := range ss {
			if s.Name == spanRPC {
				rpcs++
				rpcBytes += s.Bytes
			}
		}
	}

	var trainMiss, lookups, exact, filtered, batch, label, pixels, flush, shard, fanout []float64
	for _, s := range spans {
		switch s.Name {
		case spanTrain:
			switch s.Attr {
			case "miss":
				trainMiss = append(trainMiss, dms(s))
			case "hit":
				lookups = append(lookups, dms(s))
			}
		case spanUpdate:
			if s.Attr == "label" {
				label = append(label, dms(s))
			} else {
				pixels = append(pixels, dms(s))
			}
		case spanFlush:
			flush = append(flush, dms(s))
		}
		if !inWindow(s) {
			continue
		}
		switch s.Name {
		case spanRetrieve, spanBatch:
			if s.Name == spanBatch {
				batch = append(batch, dms(s))
			} else if s.Attr == "filtered" {
				filtered = append(filtered, dms(s))
			} else {
				exact = append(exact, dms(s))
			}
			// Coordinator fan-out: the call's time beyond its slowest
			// shard.
			var slowest int64 = -1
			for _, rpc := range kids[s.ID] {
				for _, sh := range kids[rpc.ID] {
					if sh.Name == spanShard {
						slowest = max(slowest, sh.End-sh.Start)
					}
				}
			}
			if slowest >= 0 {
				fanout = append(fanout, ms(time.Duration(s.End-s.Start-slowest)))
			}
		case spanShard:
			shard = append(shard, dms(s))
		}
	}

	d := func(a, b int64) int64 { return b - a }
	var hitRatio float64
	if bc, ac := r.before.Cache, r.after.Cache; bc != nil && ac != nil {
		hits := d(bc.Hits, ac.Hits)
		if all := hits + d(bc.Misses, ac.Misses) + d(bc.Coalesced, ac.Coalesced); all > 0 {
			hitRatio = float64(hits) / float64(all)
		}
	}
	screened := d(r.before.Prune.Screened, r.after.Prune.Screened)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	lags := r.rec.lags
	if r.open != nil {
		lags = r.open.lags
	}
	return map[string]metric{
		"server.self_ms":             {median(self), "ms"},
		"server.wire_ms":             {median(wire), "ms"},
		"qcache.hit_ratio":           {hitRatio, "ratio"},
		"qcache.lookup_ms":           {median(lookups), "ms"},
		"core.train_p50_ms":          {quantile(trainMiss, 0.5), "ms"},
		"core.train_p90_ms":          {quantile(trainMiss, 0.9), "ms"},
		"core.evals_per_train":       {ratio(float64(r.evals1-r.evals0-r.evalsOutside), float64(r.trainings.Load())), "count"},
		"core.train_share":           {ratio(float64(trainNS), float64(rttNS)), "ratio"},
		"index.scan_exact_ms":        {median(exact), "ms"},
		"index.scan_filtered_ms":     {median(filtered), "ms"},
		"index.batch_scan_ms":        {median(batch), "ms"},
		"index.screened":             {float64(screened), "count"},
		"index.reject_ratio":         {ratio(float64(d(r.before.Prune.Rejected, r.after.Prune.Rejected)), float64(screened)), "ratio"},
		"retrieval.update_label_ms":  {median(label), "ms"},
		"retrieval.update_pixels_ms": {median(pixels), "ms"},
		"retrieval.dead_ratio_max":   {r.deadMax, "ratio"},
		"retrieval.compactions":      {float64(r.compacts), "count"},
		"store.flush_p50_ms":         {quantile(flush, 0.5), "ms"},
		"store.flush_p90_ms":         {quantile(flush, 0.9), "ms"},
		"store.save_s":               {median(r.setup.saveS), "s"},
		"store.load_s":               {median(r.setup.loadS), "s"},
		"feature.add_ms":             {median(r.setup.addMS), "ms"},
		"remote.shard_ms":            {median(shard), "ms"},
		"remote.fanout_ms":           {median(fanout), "ms"},
		"remote.rpcs_per_query":      {ratio(float64(rpcs), float64(queries)), "count"},
		"remote.bytes_per_query":     {ratio(float64(rpcBytes), float64(queries)), "bytes"},
		"loadgen.lag_p90_ms":         {quantile(lags, 0.9), "ms"},
		"trace.overhead_ratio":       {ratio(median(r.rec.latencies("query", true)), median(r.rec.latencies("query", false))), "ratio"},
	}, ratio(float64(scanNS), float64(rttNS))
}
