package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	transer "transer"
	"transer/internal/dataset"
	"transer/internal/ml"
	"transer/internal/model"
	"transer/internal/obs"
	"transer/internal/pipeline"
	"transer/internal/repo"
	"transer/internal/serve"
	"transer/internal/stream"
)

const (
	// streamScale gives a replay of 4,691 records: 4,691 ingests and
	// 1,172 each of resolves and matches, enough for a p99 of ingest
	// with ten samples beyond it in one replay.
	streamScale = 0.5
	// modelScale is the scale of the training fixture the served model
	// comes from.
	modelScale = 0.05
	// readEvery sends one resolve and one match after every 4th ingest.
	readEvery = 4
	// probeRequests is the replay prefix the tracing-overhead probe
	// repeats.
	probeRequests = 800
)

// streamReq is one prepared request of the replay.
type streamReq struct {
	route string // "ingest", "resolve" or "match"
	body  []byte
}

// streamServer is one fresh server: model loaded from its artifact
// bytes, an empty store with a new WAL, the handler.
type streamServer struct {
	dir   string
	wal   string
	scfg  stream.Config
	store *stream.Store
	h     http.Handler
	tr    *obs.Tracer
}

func newStreamServer(art []byte, workdir string, traced bool) (*streamServer, error) {
	a, err := model.Decode(art)
	if err != nil {
		return nil, err
	}
	m, err := model.NewMatcher(a)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "stream-")
	if err != nil {
		return nil, err
	}
	s := &streamServer{dir: dir, wal: filepath.Join(dir, "wal.jsonl")}
	if traced {
		s.tr = obs.New("perfbench-stream")
	}
	s.scfg = stream.FromMatcher(m)
	s.scfg.Workers = 1
	s.scfg.Metrics = s.tr.Metrics()
	if s.store, err = stream.Recover(s.scfg, "", s.wal); err != nil {
		s.close()
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		Registry: serve.StaticRegistry(m),
		Workers:  1,
		Tracer:   s.tr,
		Stream:   s.store,
		// Keep every request span in the traced run's tree.
		SpanSample: 1 << 40,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.h = srv.Handler()
	return s, nil
}

// close releases the WAL and removes the server's files.
func (s *streamServer) close() error {
	var err error
	if s.store != nil {
		err = s.store.CloseWAL()
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// replayResult is what one replay measured.
type replayResult struct {
	wall      time.Duration
	lat       map[string][]float64 // per route, ms
	requests  int
	failed    int
	responses string // digest of every status and body, in order
}

// replay sends reqs through the handler, one at a time.
func (s *streamServer) replay(reqs []streamReq, rec *recorder) replayResult {
	res := replayResult{lat: map[string][]float64{}}
	d := newDigester()
	start := time.Now()
	for _, q := range reqs {
		r := httptest.NewRequest(http.MethodPost, "/v1/"+q.route, bytes.NewReader(q.body))
		w := httptest.NewRecorder()
		sp := rec.begin("serve."+q.route, -1)
		t0 := time.Now()
		s.h.ServeHTTP(w, r)
		lat := time.Since(t0)
		rec.finish(sp)
		res.lat[q.route] = append(res.lat[q.route], ms(lat))
		res.requests++
		if w.Code < 200 || w.Code > 299 {
			res.failed++
		}
		d.u64(uint64(w.Code))
		d.bytes(w.Body.Bytes())
	}
	res.wall = time.Since(start)
	res.responses = d.sum()
	return res
}

// runStream replays a demographic data set as online traffic: each
// record is one POST /v1/ingest, and after every 4th ingest the client
// sends one POST /v1/resolve and one POST /v1/match. The client is a
// closed loop; each replay starts from an empty store with a new WAL.
func runStream(cfg runConfig, g *gate) (*outcome, error) {
	out := newOutcome()
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	fixStart := time.Now()
	var fixture *recorder
	if cfg.traced {
		fixture = &recorder{}
	}
	art, signature, err := streamModel(fixture)
	if err != nil {
		return nil, fmt.Errorf("model fixture: %w", err)
	}
	g.fixed("signature", signature)
	a, err := model.Decode(art)
	if err != nil {
		return nil, err
	}
	schema, err := a.RecordSchema()
	if err != nil {
		return nil, err
	}
	data := pipeline.MustDataset("IOS-Bp-Bp").Generate(streamScale)
	records := append(append([]dataset.Record(nil), data.A.Records...), data.B.Records...)
	reqs, err := streamRequests(records, schema, cfg.seed)
	if err != nil {
		return nil, err
	}
	out.extra["fixture_s"] = time.Since(fixStart).Seconds()

	// Warm-up: a prefix of the replay on a throwaway server.
	warm, err := newStreamServer(art, cfg.workdir, false)
	if err != nil {
		return nil, err
	}
	warm.replay(reqs[:probeRequests], nil)
	if err := warm.close(); err != nil {
		return nil, err
	}
	if cfg.traced {
		var perr error
		out.metrics["trace.overhead_pct"] = overheadProbe(2, func(traced bool) time.Duration {
			s, err := newStreamServer(art, cfg.workdir, traced)
			if err != nil {
				perr = err
				return 1
			}
			var rec *recorder
			if traced {
				rec = &recorder{}
			}
			wall := s.replay(reqs[:probeRequests], rec).wall
			if err := s.close(); err != nil {
				perr = err
			}
			return wall
		})
		if perr != nil {
			return nil, perr
		}
	}

	var srv *streamServer
	setups := &setupTimer{setup: func() (func() error, error) {
		var err error
		if srv, err = newStreamServer(art, cfg.workdir, cfg.traced); err != nil {
			return nil, err
		}
		return func() error {
			err := srv.close()
			srv = nil
			return err
		}, nil
	}}
	if err := setups.round(setupRound); err != nil {
		return nil, err
	}

	var (
		rec    *recorder
		walls  []float64
		timed  time.Duration
		lat    = map[string][]float64{}
		seen   = map[string]string{}
		tracer []*obs.Tracer
		m0     runtime.MemStats
		mem    memDelta
		stats  struct{ ingested, candidates, edges, merges, walBytes, shed, errs int64 }
	)
	if cfg.traced {
		rec = &recorder{}
	}
	for len(walls) == 0 || timed < cfg.seconds {
		// Every replay starts on the last server of a set-up round.
		if len(walls) > 0 {
			if err := setups.round(setupRound); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		m0 = memStats()
		r := srv.replay(reqs, rec)
		d := deltaOf(m0, memStats())
		mem.allocMB += d.allocMB
		mem.gcs += d.gcs
		timed += r.wall
		walls = append(walls, r.wall.Seconds())
		for route, xs := range r.lat {
			lat[route] = append(lat[route], xs...)
		}
		out.attempted += int64(r.requests)
		out.failed += int64(r.failed)
		g.require(r.failed == 0, "replay %d: %d non-2xx responses", len(walls), r.failed)

		if err := checkReplay(g, srv, r, len(records), seen); err != nil {
			return nil, err
		}
		if cfg.traced {
			tracer = append(tracer, srv.tr)
			reg := srv.tr.Metrics()
			stats.ingested += reg.Counter("stream.ingested_total").Value()
			stats.candidates += reg.Counter("stream.candidates_total").Value()
			stats.edges += reg.Counter("stream.match_edges_total").Value()
			stats.merges += reg.Counter("stream.merges_total").Value()
			stats.shed += reg.Counter("serve.shed_total").Value()
			stats.errs += reg.Counter("serve.errors_total").Value()
			fi, err := os.Stat(srv.wal)
			if err != nil {
				return nil, err
			}
			stats.walBytes += fi.Size()
		}
		if err := setups.release(); err != nil {
			return nil, err
		}
	}

	ingest, err := tailPercentile(lat["ingest"], 99)
	if err != nil {
		return nil, fmt.Errorf("ingest latency: %w", err)
	}
	resolve, err := tailPercentile(lat["resolve"], 99)
	if err != nil {
		return nil, fmt.Errorf("resolve latency: %w", err)
	}
	out.extra["wall_s"] = median(walls)
	out.metrics["throughput_per_s"] = float64(out.attempted) / timed.Seconds()
	out.metrics["latency_p50_ms"] = median(lat["ingest"])
	out.metrics["latency_tail_ms"] = ingest
	out.extra["replays"] = float64(len(walls))
	out.extra["ingest_p50_ms"] = median(lat["ingest"])
	out.extra["ingest_p99_ms"] = ingest
	out.extra["resolve_p50_ms"] = median(lat["resolve"])
	out.extra["resolve_p99_ms"] = resolve
	out.extra["match_p50_ms"] = median(lat["match"])

	if cfg.traced {
		tot := fixture.totals()
		out.metrics["model.export_ms"] = ms(tot["model.export"])
		out.metrics["repo.signature_ms"] = ms(tot["repo.signature"])
		out.metrics["model.artifact_bytes"] = float64(len(art))
		replays := float64(len(walls))
		out.metrics["serve.resolve_p50_ms"] = median(lat["resolve"])
		out.metrics["serve.resolve_p99_ms"] = resolve
		out.metrics["serve.match_p50_ms"] = median(lat["match"])
		var spans struct {
			ingestSelf, resolveSelf, ingest, resolve, match time.Duration
			nIngest, nResolve, nMatch                       int
		}
		for _, tr := range tracer {
			for _, sp := range tr.Root().Children() {
				switch sp.Name() {
				case "request:ingest":
					child := sp.Find("ingest").Duration()
					spans.ingest += child
					spans.ingestSelf += sp.Duration() - child
					spans.nIngest++
				case "request:resolve":
					child := sp.Find("resolve").Duration()
					spans.resolve += child
					spans.resolveSelf += sp.Duration() - child
					spans.nResolve++
				case "request:match":
					spans.match += sp.Duration()
					spans.nMatch++
				}
			}
		}
		out.metrics["serve.ingest_self_ms"] = ms(spans.ingestSelf) / float64(spans.nIngest)
		out.metrics["serve.resolve_self_ms"] = ms(spans.resolveSelf) / float64(spans.nResolve)
		out.metrics["stream.ingest_ms"] = ms(spans.ingest) / float64(spans.nIngest)
		out.metrics["stream.resolve_ms"] = ms(spans.resolve) / float64(spans.nResolve)
		out.metrics["serve.match_ms"] = ms(spans.match) / float64(spans.nMatch)
		out.metrics["stream.candidates_per_ingest"] = float64(stats.candidates) / float64(stats.ingested)
		out.metrics["stream.edge_ratio"] = float64(stats.edges) / float64(stats.candidates)
		out.metrics["stream.merges"] = float64(stats.merges) / replays
		out.metrics["stream.wal_bytes"] = float64(stats.walBytes) / replays
		out.metrics["serve.shed"] = float64(stats.shed)
		out.metrics["serve.errors"] = float64(stats.errs)
		var inRequests time.Duration
		for _, d := range rec.totals() {
			inRequests += d
		}
		out.metrics["trace.unattributed_pct"] = 100 * (timed - inRequests).Seconds() / timed.Seconds()
		out.metrics["runtime.alloc_mb"] = mem.allocMB
		out.metrics["runtime.gc_cycles"] = float64(mem.gcs)
	}
	if err := setups.finish(out, setupRound); err != nil {
		return nil, err
	}
	return out, nil
}

// checkReplay gates one replay: the final store, the response stream
// and the WAL match the recorded digests for this seed and every earlier
// replay of the run; the entity partition, which no ingest order can
// change, matches its seed-independent digest.
func checkReplay(g *gate, s *streamServer, r replayResult, records int, seen map[string]string) error {
	fp, err := s.store.Fingerprint()
	if err != nil {
		return err
	}
	if err := s.store.CloseWAL(); err != nil {
		return err
	}
	wal, err := os.ReadFile(s.wal)
	if err != nil {
		return err
	}
	walDigest := digestOf(wal)
	if _, again := seen["store"]; !again {
		g.seeded("store", fp)
		g.seeded("responses", r.responses)
		g.seeded("wal", walDigest)
		g.fixed("partition", digestPartition(s.store.Partition()))
	}
	g.same(seen, "store", fp)
	g.same(seen, "responses", r.responses)
	g.same(seen, "wal", walDigest)
	st := s.store.Stats()
	g.require(st.Records == records, "store holds %d records after replaying %d", st.Records, records)
	return nil
}

// streamModel trains the served model: TransER from KIL-Bp-Bp to
// IOS-Bp-Bp with the default classifier and a fixed seed, so the model
// is the same for every workload seed. It exports the artifact the way
// cmd/transer -model-out does and builds the target's repository
// signature, which it returns as a digest for the gate; the served
// artifact leaves the signature out. With rec set it records the export
// and the signature as spans.
func streamModel(rec *recorder) (art []byte, signature string, err error) {
	domain := func(key, name string) *transer.Domain {
		d := pipeline.BuildPair(pipeline.MustDataset(key).Generate(modelScale), 1)
		return &transer.Domain{Name: name, A: d.A, B: d.B, Pairs: d.Pairs, X: d.X, Y: d.Y, Scheme: d.Scheme}
	}
	src, tgt := domain("KIL-Bp-Bp", "source"), domain("IOS-Bp-Bp", "target")
	c := transer.DefaultConfig()
	c.Seed, c.Workers = mainSeed, 1
	res, err := transer.Transfer(src, tgt, transer.WithConfig(c))
	if err != nil {
		return nil, "", err
	}
	rec.wrap("model.export", -1, func() {
		var a *model.Artifact
		if a, err = newArtifact(res, src, tgt, c); err == nil {
			art, err = a.Encode()
		}
	})
	if err != nil {
		return nil, "", err
	}
	var sig *model.Signature
	rec.wrap("repo.signature", -1, func() { sig = repo.BuildSignature(tgt.A, tgt.B, tgt.X) })
	b, err := json.Marshal(sig)
	if err != nil {
		return nil, "", err
	}
	return art, digestOf(b), nil
}

// newArtifact assembles the transer.model/v1 artifact the way
// cmd/transer -model-out does, without the signature.
func newArtifact(res *transer.Result, src, tgt *transer.Domain, cfg transer.Config) (*model.Artifact, error) {
	pc, ok := res.Classifier.(ml.ParamClassifier)
	if !ok {
		return nil, fmt.Errorf("classifier %T does not support parameter export", res.Classifier)
	}
	art, err := model.New(src.Name+"→"+tgt.Name, pc, tgt.A.Schema, tgt.Scheme)
	if err != nil {
		return nil, err
	}
	art.Training = model.TrainingFromConfig(cfg)
	st := res.Stats
	art.Provenance = model.Provenance{
		SourceName:     src.Name,
		TargetName:     tgt.Name,
		SourceA:        pipeline.DataFingerprint(src.A).Hex(),
		SourceB:        pipeline.DataFingerprint(src.B).Hex(),
		TargetA:        pipeline.DataFingerprint(tgt.A).Hex(),
		TargetB:        pipeline.DataFingerprint(tgt.B).Hex(),
		SourcePairs:    src.NumPairs(),
		TargetPairs:    tgt.NumPairs(),
		Selected:       st.Selected,
		HighConfidence: st.HighConfidence,
		BalancedTrain:  st.BalancedTrain,
		TCLFallback:    st.TCLFallback,
	}
	return art, nil
}

// streamRequests builds the replay: the records in a seeded shuffled
// order as single-record ingests, and after every readEvery-th ingest a
// resolve of a seeded random record and a match of the just-ingested
// record against another seeded random record.
func streamRequests(records []dataset.Record, schema dataset.Schema, seed int64) ([]streamReq, error) {
	rng := rand.New(rand.NewSource(seed))
	attrs := func(r dataset.Record) map[string]string {
		m := make(map[string]string, len(schema.Attributes))
		for i, a := range schema.Attributes {
			m[a.Name] = r.Values[i]
		}
		return m
	}
	var reqs []streamReq
	for i, idx := range rng.Perm(len(records)) {
		r := records[idx]
		var buf bytes.Buffer
		if err := stream.EncodeRecords(&buf, []dataset.Record{r}, schema); err != nil {
			return nil, err
		}
		reqs = append(reqs, streamReq{"ingest", buf.Bytes()})
		if (i+1)%readEvery != 0 {
			continue
		}
		probe := records[rng.Intn(len(records))]
		body, err := json.Marshal(stream.WireRecord{Attrs: attrs(probe)})
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, streamReq{"resolve", body})
		other := records[rng.Intn(len(records))]
		body, err = json.Marshal(serve.MatchRequest{A: attrs(r), B: attrs(other)})
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, streamReq{"match", body})
	}
	return reqs, nil
}
