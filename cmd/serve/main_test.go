package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	transer "transer"
	"transer/internal/dataset"
	"transer/internal/obs"
	"transer/internal/serve"
	"transer/internal/testkit"
)

func TestServeMissingModelFlag(t *testing.T) {
	bin := testkit.BuildBinary(t, "transer/cmd/serve")
	out := testkit.RunBinaryErr(t, bin)
	if !strings.Contains(out, "missing required flag -model") {
		t.Fatalf("want a missing-flag diagnostic, got:\n%s", out)
	}
}

func TestServeUsageListsFlags(t *testing.T) {
	bin := testkit.BuildBinary(t, "transer/cmd/serve")
	out, _ := exec.Command(bin, "-h").CombinedOutput()
	for _, flag := range []string{"-model", "-addr", "-timeout", "-max-in-flight", "-max-queue",
		"-max-batch", "-workers", "-drain", "-metrics-out",
		"-stream", "-stream-wal", "-stream-snapshot"} {
		if !strings.Contains(string(out), flag) {
			t.Fatalf("usage output lacks %s:\n%s", flag, out)
		}
	}
}

// trainModel runs datagen + cmd/transer -model-out once per test
// binary and caches the resulting directory.
var trainModel = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "serve-e2e")
	if err != nil {
		return "", err
	}
	build := func(pkg string) (string, error) {
		bin := filepath.Join(dir, filepath.Base(pkg))
		out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
		if err != nil {
			return "", fmt.Errorf("go build %s: %v\n%s", pkg, err, out)
		}
		return bin, nil
	}
	datagen, err := build("transer/cmd/datagen")
	if err != nil {
		return "", err
	}
	transerBin, err := build("transer/cmd/transer")
	if err != nil {
		return "", err
	}
	run := func(bin string, args ...string) error {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			return fmt.Errorf("%s %v: %v\n%s", bin, args, err, out)
		}
		return nil
	}
	if err := run(datagen, "-dataset", "dblp-acm", "-scale", "0.1", "-out", dir); err != nil {
		return "", err
	}
	if err := run(datagen, "-dataset", "dblp-scholar", "-scale", "0.1", "-out", dir); err != nil {
		return "", err
	}
	if err := run(transerBin,
		"-source-a", filepath.Join(dir, "dblp-acm-a.csv"),
		"-source-b", filepath.Join(dir, "dblp-acm-b.csv"),
		"-target-a", filepath.Join(dir, "dblp-scholar-a.csv"),
		"-target-b", filepath.Join(dir, "dblp-scholar-b.csv"),
		"-out", filepath.Join(dir, "matches.csv"),
		"-model-out", filepath.Join(dir, "model.json")); err != nil {
		return "", err
	}
	return dir, nil
})

func trainedDir(t *testing.T) string {
	t.Helper()
	dir, err := trainModel()
	if err != nil {
		t.Fatalf("training fixture: %v", err)
	}
	return dir
}

// serveProc is a running cmd/serve process bound to an ephemeral port.
type serveProc struct {
	cmd  *exec.Cmd
	base string
	done chan error

	mu     sync.Mutex
	stderr []string
}

// startServe launches the binary on 127.0.0.1:0 and waits until it
// reports its bound address.
func startServe(t *testing.T, bin string, args ...string) *serveProc {
	t.Helper()
	p := &serveProc{done: make(chan error, 1)}
	p.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.stderr = append(p.stderr, line)
			p.mu.Unlock()
			if i := strings.Index(line, "on http://"); i >= 0 {
				select {
				case addrCh <- strings.TrimSpace(line[i+len("on http://"):]):
				default:
				}
			}
		}
		p.done <- p.cmd.Wait()
	}()
	select {
	case addr := <-addrCh:
		p.base = "http://" + addr
	case err := <-p.done:
		t.Fatalf("serve exited before binding: %v\n%s", err, p.log())
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		t.Fatalf("serve did not report its address\n%s", p.log())
	}
	t.Cleanup(func() {
		if p.cmd.ProcessState == nil {
			p.cmd.Process.Kill()
			<-p.done
		}
	})
	return p
}

func (p *serveProc) log() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.stderr, "\n")
}

// stop sends SIGTERM and waits for a clean exit.
func (p *serveProc) stop(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signal: %v", err)
	}
	select {
	case err := <-p.done:
		if err != nil {
			t.Fatalf("serve exited uncleanly: %v\n%s", err, p.log())
		}
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		t.Fatalf("serve did not drain within 30s\n%s", p.log())
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if into != nil {
		if err := json.Unmarshal(data, into); err != nil {
			t.Fatalf("GET %s: invalid JSON %q: %v", url, data, err)
		}
	}
	return resp
}

// targetBatch rebuilds the target domain the training run used and
// renders every candidate pair as a batch request payload.
func targetBatch(t *testing.T, dir string) (serve.BatchRequest, *transer.Domain) {
	t.Helper()
	dbA, err := dataset.ReadCSVFile(filepath.Join(dir, "dblp-scholar-a.csv"), "target-a")
	if err != nil {
		t.Fatal(err)
	}
	dbB, err := dataset.ReadCSVFile(filepath.Join(dir, "dblp-scholar-b.csv"), "target-b")
	if err != nil {
		t.Fatal(err)
	}
	target, err := transer.NewDomain(dbA, dbB, transer.WithName("target"))
	if err != nil {
		t.Fatal(err)
	}
	attrs := make([]string, len(target.A.Schema.Attributes))
	for i, a := range target.A.Schema.Attributes {
		attrs[i] = a.Name
	}
	payload := func(r transer.Record) serve.RecordPayload {
		m := serve.RecordPayload{}
		for i, v := range r.Values {
			m[attrs[i]] = v
		}
		return m
	}
	var req serve.BatchRequest
	for _, pr := range target.Pairs {
		req.Pairs = append(req.Pairs, serve.MatchRequest{
			A: payload(target.A.Records[pr.A]),
			B: payload(target.B.Records[pr.B]),
		})
	}
	return req, target
}

// TestServeEndToEndParity is the headline acceptance check: a model
// trained by `cmd/transer -model-out` and served by `cmd/serve -model`
// returns exactly the decisions the training run wrote to its output
// CSV.
func TestServeEndToEndParity(t *testing.T) {
	dir := trainedDir(t)
	bin := testkit.BuildBinary(t, "transer/cmd/serve")
	p := startServe(t, bin, "-model", filepath.Join(dir, "model.json"))

	var health serve.HealthResponse
	if resp := getJSON(t, p.base+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if health.Status != "ok" {
		t.Fatalf("health %+v", health)
	}

	// The active model leads the listing; with -repo a catalog is
	// appended after it, so only the head is pinned here.
	var models serve.ModelsResponse
	getJSON(t, p.base+"/v1/models", &models)
	if len(models.Models) == 0 || models.Models[0].Classifier != "rf" || models.Models[0].Source != "active" {
		t.Fatalf("models %+v", models)
	}

	req, target := targetBatch(t, dir)
	resp, body := postJSON(t, p.base+"/v1/match/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d: %s", resp.StatusCode, body)
	}
	var batch serve.BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if batch.Count != len(req.Pairs) {
		t.Fatalf("batch scored %d of %d pairs", batch.Count, len(req.Pairs))
	}
	served := map[string]string{}
	for i, r := range batch.Results {
		if r.Match {
			pr := target.Pairs[i]
			key := target.A.Records[pr.A].ID + "," + target.B.Records[pr.B].ID
			served[key] = fmt.Sprintf("%.4f", r.Probability)
		}
	}

	data, err := os.ReadFile(filepath.Join(dir, "matches.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	want := map[string]string{}
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		want[f[0]+","+f[1]] = f[2]
	}
	if len(served) != len(want) {
		t.Fatalf("training run decided %d matches, served model %d", len(want), len(served))
	}
	for k, prob := range want {
		if served[k] != prob {
			t.Errorf("pair %s: training run %s, served %s", k, prob, served[k])
		}
	}

	// The single-pair endpoint agrees with the batch endpoint.
	var single serve.MatchResponse
	resp, body = postJSON(t, p.base+"/v1/match", req.Pairs[0])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match: %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &single); err != nil {
		t.Fatal(err)
	}
	if single.Probability != batch.Results[0].Probability {
		t.Errorf("single pair scores %v, batch %v", single.Probability, batch.Results[0].Probability)
	}

	// /metrics carries the versioned schema and counted this traffic.
	var metrics serve.MetricsResponse
	getJSON(t, p.base+"/metrics", &metrics)
	if metrics.Schema != serve.MetricsSchemaVersion {
		t.Errorf("metrics schema %q", metrics.Schema)
	}
	if metrics.Metrics.Counters["serve.requests_total"] < 2 {
		t.Errorf("requests_total %d after 2 scoring requests", metrics.Metrics.Counters["serve.requests_total"])
	}
	if metrics.Metrics.Histograms["serve.request_seconds"].Count < 2 {
		t.Errorf("latency histogram missing observations: %+v", metrics.Metrics.Histograms)
	}
	p.stop(t)
}

// TestServeBatchDeterminismAcrossWorkers runs two servers with
// different worker pools over the same batch and requires bitwise
// identical response bodies.
func TestServeBatchDeterminismAcrossWorkers(t *testing.T) {
	dir := trainedDir(t)
	bin := testkit.BuildBinary(t, "transer/cmd/serve")
	req, _ := targetBatch(t, dir)
	var want []byte
	for _, workers := range []string{"1", "3"} {
		p := startServe(t, bin, "-model", filepath.Join(dir, "model.json"), "-workers", workers)
		resp, body := postJSON(t, p.base+"/v1/match/batch", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%s: %d: %s", workers, resp.StatusCode, body)
		}
		if want == nil {
			want = body
		} else if !bytes.Equal(want, body) {
			t.Fatalf("batch response differs between -workers 1 and -workers %s", workers)
		}
		p.stop(t)
	}
}

// enlargeToBytes repeats base until the marshaled batch approaches
// (but stays under) targetBytes, keeping requests inside the server's
// body-size cap while occupying a scoring slot for an observable time.
func enlargeToBytes(t *testing.T, base []serve.MatchRequest, targetBytes int) []serve.MatchRequest {
	t.Helper()
	if len(base) == 0 {
		t.Fatal("empty base batch")
	}
	b, err := json.Marshal(serve.BatchRequest{Pairs: base})
	if err != nil {
		t.Fatal(err)
	}
	copies := targetBytes / len(b)
	if copies < 1 {
		copies = 1
	}
	pairs := make([]serve.MatchRequest, 0, copies*len(base))
	for i := 0; i < copies; i++ {
		pairs = append(pairs, base...)
	}
	return pairs
}

// TestServeShedsUnderSaturation saturates a 1-slot, 0-queue server
// with a slot-holding batch: the service must shed the next request
// with 429 + Retry-After rather than queue it, stay observable, and
// keep serving afterwards.
func TestServeShedsUnderSaturation(t *testing.T) {
	dir := trainedDir(t)
	bin := testkit.BuildBinary(t, "transer/cmd/serve")
	p := startServe(t, bin, "-model", filepath.Join(dir, "model.json"),
		"-max-in-flight", "1", "-max-queue", "0", "-workers", "1",
		"-max-batch", "1000000", "-timeout", "60s")

	req, _ := targetBatch(t, dir)
	// Enlarge the batch (up to the body-size cap) so it holds the single
	// scoring slot long enough to observe saturation deterministically.
	base := req.Pairs
	req.Pairs = enlargeToBytes(t, base, 6<<20)
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	holder := make(chan int, 1)
	go func() {
		resp, err := http.Post(p.base+"/v1/match/batch", "application/json", bytes.NewReader(b))
		if err != nil {
			holder <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		holder <- resp.StatusCode
	}()

	// Metadata endpoints stay outside the admission gate, so /metrics
	// tells us when the batch has taken the slot.
	saturated := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		var metrics serve.MetricsResponse
		getJSON(t, p.base+"/metrics", &metrics)
		if metrics.Metrics.Gauges["serve.in_flight"] >= 1 {
			saturated = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !saturated {
		t.Fatalf("giant batch never took the scoring slot\n%s", p.log())
	}

	// Slot taken, queue disabled: the next request must shed with 429.
	resp, body := postJSON(t, p.base+"/v1/match", base[0])
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After header")
	}
	// The server stays observable while saturated.
	var health serve.HealthResponse
	if hr := getJSON(t, p.base+"/healthz", &health); hr.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Errorf("healthz unavailable under saturation: %d %+v", hr.StatusCode, health)
	}

	if code := <-holder; code != http.StatusOK {
		t.Fatalf("slot-holding batch answered %d\n%s", code, p.log())
	}
	// Saturation over: the server serves again.
	if resp, body := postJSON(t, p.base+"/v1/match", base[0]); resp.StatusCode != http.StatusOK {
		t.Fatalf("after saturation: %d: %s", resp.StatusCode, body)
	}
	var metrics serve.MetricsResponse
	getJSON(t, p.base+"/metrics", &metrics)
	if metrics.Metrics.Counters["serve.shed_total"] == 0 {
		t.Errorf("shed_total not incremented: %v", metrics.Metrics.Counters)
	}
	p.stop(t)
}

// TestServeGracefulShutdownMidBatch sends SIGTERM while a batch is in
// flight: the batch must complete with 200 and the process exit
// cleanly, writing a valid run report.
func TestServeGracefulShutdownMidBatch(t *testing.T) {
	dir := trainedDir(t)
	bin := testkit.BuildBinary(t, "transer/cmd/serve")
	report := filepath.Join(t.TempDir(), "serve-report.json")
	p := startServe(t, bin, "-model", filepath.Join(dir, "model.json"),
		"-workers", "1", "-metrics-out", report,
		"-max-batch", "1000000", "-timeout", "60s")

	req, _ := targetBatch(t, dir)
	// Enlarge the batch so it is still scoring when the signal lands.
	req.Pairs = enlargeToBytes(t, req.Pairs, 4<<20)
	type result struct {
		code int
		body []byte
		err  error
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Post(p.base+"/v1/match/batch", "application/json", bytes.NewReader(b))
		if err != nil {
			resCh <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			resCh <- result{err: err}
			return
		}
		resCh <- result{code: resp.StatusCode, body: body}
	}()
	// Signal only once the batch is observably in flight.
	inFlight := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		var m serve.MetricsResponse
		getJSON(t, p.base+"/metrics", &m)
		if m.Metrics.Gauges["serve.in_flight"] >= 1 {
			inFlight = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !inFlight {
		t.Fatalf("batch never became in-flight\n%s", p.log())
	}
	p.stop(t) // SIGTERM + wait for clean exit

	res := <-resCh
	if res.err != nil {
		t.Fatalf("in-flight batch failed during drain: %v\n%s", res.err, p.log())
	}
	if res.code != http.StatusOK {
		t.Fatalf("in-flight batch answered %d during drain: %s", res.code, res.body)
	}
	var batch serve.BatchResponse
	if err := json.Unmarshal(res.body, &batch); err != nil {
		t.Fatalf("drained batch response invalid: %v", err)
	}
	if batch.Count != len(req.Pairs) {
		t.Fatalf("drained batch scored %d of %d pairs", batch.Count, len(req.Pairs))
	}

	rb, err := os.ReadFile(report)
	if err != nil {
		t.Fatalf("run report not written on shutdown: %v", err)
	}
	if _, err := obs.ValidateReportBytes(rb); err != nil {
		t.Fatalf("run report fails schema validation: %v", err)
	}
}

// ingestChunks posts db's records to /v1/ingest in order, id-prefixed
// by side, returning the final store stats.
func ingestChunks(t *testing.T, base string, db *dataset.Database, prefix string, wantFirstSeq int) serve.IngestResponse {
	t.Helper()
	attrs := db.Schema.Names()
	var last serve.IngestResponse
	const chunk = 64
	seq := wantFirstSeq
	for start := 0; start < len(db.Records); start += chunk {
		end := start + chunk
		if end > len(db.Records) {
			end = len(db.Records)
		}
		recs := make([]map[string]any, 0, end-start)
		for _, rec := range db.Records[start:end] {
			m := map[string]string{}
			for i, v := range rec.Values {
				m[attrs[i]] = v
			}
			recs = append(recs, map[string]any{"id": prefix + rec.ID, "attrs": m})
		}
		resp, body := postJSON(t, base+"/v1/ingest", map[string]any{"records": recs})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest records %d..%d: %d: %s", start, end, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &last); err != nil {
			t.Fatal(err)
		}
		for k, r := range last.Results {
			if r.Seq != seq+k {
				t.Fatalf("record %d ingested with seq %d, want %d", start+k, r.Seq, seq+k)
			}
		}
		seq += len(last.Results)
	}
	return last
}

// attrPayload renders one record as a resolve request body.
func attrPayload(db *dataset.Database, i int) map[string]any {
	attrs := db.Schema.Names()
	m := map[string]string{}
	for k, v := range db.Records[i].Values {
		m[attrs[k]] = v
	}
	return map[string]any{"attrs": m}
}

// TestServeStreamBatchParity is the streaming acceptance check: a
// server that ingests the A side of DBLP-ACM and resolves every B
// record must reproduce, byte for byte, the match CSV that the batch
// query engine (cmd/query -model -format csv) computes for the same
// linkage — same pairs, same ids, same %.6f scores.
func TestServeStreamBatchParity(t *testing.T) {
	dir := trainedDir(t)
	serveBin := testkit.BuildBinary(t, "transer/cmd/serve")
	queryBin := testkit.BuildBinary(t, "transer/cmd/query")
	aCSV := filepath.Join(dir, "dblp-acm-a.csv")
	bCSV := filepath.Join(dir, "dblp-acm-b.csv")
	modelPath := filepath.Join(dir, "model.json")

	batchCSV := filepath.Join(t.TempDir(), "batch.csv")
	testkit.RunBinary(t, queryBin, "-a", aCSV, "-b", bCSV, "-model", modelPath,
		"-format", "csv", "-out", batchCSV)

	dbA, err := dataset.ReadCSVFile(aCSV, "a")
	if err != nil {
		t.Fatal(err)
	}
	dbB, err := dataset.ReadCSVFile(bCSV, "b")
	if err != nil {
		t.Fatal(err)
	}

	p := startServe(t, serveBin, "-model", modelPath, "-stream")
	last := ingestChunks(t, p.base, dbA, "", 0)
	if last.Stats.Records != len(dbA.Records) {
		t.Fatalf("store has %d records after ingesting %d", last.Stats.Records, len(dbA.Records))
	}

	// Resolve every B record read-only; each reported match (seq, score)
	// is one batch pair (seq == A index: records were ingested in file
	// order into an empty store).
	var rows [][]string
	for j := range dbB.Records {
		resp, body := postJSON(t, p.base+"/v1/resolve", attrPayload(dbB, j))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("resolve %d: %d: %s", j, resp.StatusCode, body)
		}
		var rr serve.ResolveResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		for _, m := range rr.Matches {
			rows = append(rows, []string{
				strconv.Itoa(m.Seq), strconv.Itoa(j), m.RecordID, dbB.Records[j].ID,
				strconv.FormatFloat(m.Score, 'f', 6, 64),
			})
		}
	}
	p.stop(t)
	if len(rows) == 0 {
		t.Fatal("no streaming matches: parity check is vacuous")
	}
	// Collected b-major; the batch CSV is (a, b)-sorted. The stable
	// re-sort by a keeps b ascending within each a.
	sort.SliceStable(rows, func(i, j int) bool {
		ai, _ := strconv.Atoi(rows[i][0])
		aj, _ := strconv.Atoi(rows[j][0])
		return ai < aj
	})
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	cw.Write([]string{"a", "b", "id_a", "id_b", "score"})
	for _, row := range rows {
		cw.Write(row)
	}
	cw.Flush()

	want, err := os.ReadFile(batchCSV)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		wantLines := strings.Split(string(want), "\n")
		gotLines := strings.Split(buf.String(), "\n")
		for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
			var w, g string
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if w != g {
				t.Fatalf("streaming CSV diverges from batch at line %d:\nbatch:  %q\nstream: %q\n(%d batch lines, %d stream lines)",
					i, w, g, len(wantLines), len(gotLines))
			}
		}
		t.Fatal("byte difference without a line difference (line endings?)")
	}
}

// TestServeStreamDrainAndRecovery exercises the durable streaming
// lifecycle end to end: ingest both DBLP-ACM sides (>200 records),
// resolve probes, SIGTERM with an ingest in flight (it must complete
// during the drain and land in the WAL + shutdown snapshot), then
// restart from the same state files and require every probe to resolve
// to the same entity ID — stability across a crash-restart cycle.
func TestServeStreamDrainAndRecovery(t *testing.T) {
	dir := trainedDir(t)
	bin := testkit.BuildBinary(t, "transer/cmd/serve")
	state := t.TempDir()
	wal := filepath.Join(state, "store.wal")
	snap := filepath.Join(state, "store.snap")
	modelPath := filepath.Join(dir, "model.json")

	dbA, err := dataset.ReadCSVFile(filepath.Join(dir, "dblp-acm-a.csv"), "a")
	if err != nil {
		t.Fatal(err)
	}
	dbB, err := dataset.ReadCSVFile(filepath.Join(dir, "dblp-acm-b.csv"), "b")
	if err != nil {
		t.Fatal(err)
	}
	// Both domains share the (homogeneous-transfer) schema, so the
	// scholar sides pad the smoke corpus past 200 records.
	dbSA, err := dataset.ReadCSVFile(filepath.Join(dir, "dblp-scholar-a.csv"), "sa")
	if err != nil {
		t.Fatal(err)
	}
	dbSB, err := dataset.ReadCSVFile(filepath.Join(dir, "dblp-scholar-b.csv"), "sb")
	if err != nil {
		t.Fatal(err)
	}

	p := startServe(t, bin, "-model", modelPath,
		"-stream-wal", wal, "-stream-snapshot", snap, "-timeout", "60s")
	seq := 0
	for _, part := range []struct {
		db     *dataset.Database
		prefix string
	}{{dbA, "a:"}, {dbB, "b:"}, {dbSA, "sa:"}, {dbSB, "sb:"}} {
		ingestChunks(t, p.base, part.db, part.prefix, seq)
		seq += len(part.db.Records)
	}
	stored := seq
	if stored < 200 {
		t.Fatalf("smoke corpus has %d records, want >= 200", stored)
	}

	// 20 read-only probes over known stored content.
	const nProbes = 20
	entities := make([]uint64, nProbes)
	resolveProbes := func(base string) []uint64 {
		got := make([]uint64, nProbes)
		for i := 0; i < nProbes; i++ {
			resp, body := postJSON(t, base+"/v1/resolve", attrPayload(dbA, i*3))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("resolve probe %d: %d: %s", i, resp.StatusCode, body)
			}
			var rr serve.ResolveResponse
			if err := json.Unmarshal(body, &rr); err != nil {
				t.Fatal(err)
			}
			if !rr.Matched {
				t.Fatalf("probe %d (a stored record's own content) did not match", i)
			}
			got[i] = rr.EntityID
		}
		return got
	}
	copy(entities, resolveProbes(p.base))

	// SIGTERM with a large ingest in flight: non-matching filler so it
	// cannot disturb the probe entities, big enough to observe.
	filler := make([]map[string]any, 1500)
	for i := range filler {
		filler[i] = map[string]any{"id": fmt.Sprintf("drain:%d", i), "attrs": map[string]string{
			dbA.Schema.Names()[0]: fmt.Sprintf("zzqx drain filler %d payload", i),
		}}
	}
	// Unlisted attributes default to empty only if the schema allows;
	// send every attribute explicitly.
	for i := range filler {
		m := filler[i]["attrs"].(map[string]string)
		for _, name := range dbA.Schema.Names()[1:] {
			m[name] = ""
		}
	}
	b, err := json.Marshal(map[string]any{"records": filler})
	if err != nil {
		t.Fatal(err)
	}
	resCh := make(chan int, 1)
	go func() {
		resp, err := http.Post(p.base+"/v1/ingest", "application/json", bytes.NewReader(b))
		if err != nil {
			resCh <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		resCh <- resp.StatusCode
	}()
	inFlight := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		var m serve.MetricsResponse
		getJSON(t, p.base+"/metrics", &m)
		if m.Metrics.Gauges["serve.in_flight"] >= 1 {
			inFlight = true
			break
		}
		time.Sleep(1 * time.Millisecond)
	}
	if !inFlight {
		t.Fatalf("filler ingest never became in-flight\n%s", p.log())
	}
	p.stop(t)
	if code := <-resCh; code != http.StatusOK {
		t.Fatalf("in-flight ingest answered %d during drain\n%s", code, p.log())
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("shutdown snapshot missing: %v", err)
	}

	// Restart from the same WAL + snapshot: the store must recover
	// every record (including the drained filler) and keep the probes'
	// entity IDs.
	p2 := startServe(t, bin, "-model", modelPath,
		"-stream-wal", wal, "-stream-snapshot", snap)
	if !strings.Contains(p2.log(), "entity store ready") {
		t.Fatalf("restart did not report recovery:\n%s", p2.log())
	}
	wantReady := fmt.Sprintf("(%d records", stored+len(filler))
	if !strings.Contains(p2.log(), wantReady) {
		t.Fatalf("recovered store did not report %s:\n%s", wantReady, p2.log())
	}
	after := resolveProbes(p2.base)
	for i := range entities {
		if after[i] != entities[i] {
			t.Fatalf("probe %d entity changed across restart: %d -> %d", i, entities[i], after[i])
		}
	}
	p2.stop(t)
}
