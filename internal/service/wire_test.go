package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"dynring"
)

// TestRequestBodiesRejectTrailingBytes: a body with bytes after its JSON
// value is a 400 on both work-creating endpoints, while trailing
// whitespace stays legal unless it takes the body past the size cap.
func TestRequestBodiesRejectTrailingBytes(t *testing.T) {
	m := mustNew(t, Options{Workers: 1, CacheSize: 64})
	defer m.Close()
	h := NewHandler(m)
	sweep, _ := json.Marshal(testSpec())
	run, _ := json.Marshal(dynring.RunRequest{Scenario: dynring.ScenarioSpec{
		Algorithm: "KnownNNoChirality", Size: 6, Seed: 1,
	}})
	for _, tc := range []struct {
		path string
		body []byte
		ok   int
	}{
		{"/v1/sweeps", sweep, http.StatusCreated},
		{"/v1/run", run, http.StatusOK},
	} {
		for suffix, want := range map[string]int{
			"":                                tc.ok,
			" \r\n\t":                         tc.ok,
			"junk":                            http.StatusBadRequest,
			"{}":                              http.StatusBadRequest,
			strings.Repeat(" ", maxSpecBytes): http.StatusBadRequest,
		} {
			req, rec := newTestRequest(http.MethodPost, tc.path, append(bytes.Clone(tc.body), suffix...))
			h.ServeHTTP(rec, req)
			if rec.Code != want {
				t.Errorf("POST %s with suffix %.12q: status %d, want %d: %s", tc.path, suffix, rec.Code, want, rec.Body)
			}
		}
	}
}

// TestResultStreamIsEncodingJSON: every line of a results stream —
// finished rows and the error rows of a cancelled job — is exactly what
// json.Encoder would have written for the row it decodes to.
func TestResultStreamIsEncodingJSON(t *testing.T) {
	m := mustNew(t, Options{Workers: 1, CacheSize: 64})
	defer m.Close()
	h := NewHandler(m)
	done, err := m.Submit(testSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, done)
	big := testSpec()
	big.Sizes = []int{10, 12, 14, 16, 18, 20}
	cancelled, err := m.Submit(big, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m.Cancel(cancelled.ID)
	errorRows := 0
	for _, j := range []*Job{done, cancelled} {
		req, rec := newTestRequest(http.MethodGet, "/v1/sweeps/"+j.ID+"/results", nil)
		h.ServeHTTP(rec, req)
		lines := bytes.SplitAfter(rec.Body.Bytes(), []byte("\n"))
		if len(lines) != j.Total()+1 || len(lines[j.Total()]) != 0 {
			t.Fatalf("job %s: %d lines for %d rows", j.ID, len(lines)-1, j.Total())
		}
		for _, line := range lines[:j.Total()] {
			var row dynring.ResultRow
			if err := json.Unmarshal(line, &row); err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			_ = json.NewEncoder(&want).Encode(row)
			if !bytes.Equal(line, want.Bytes()) {
				t.Fatalf("stream line %q, encoding/json %q", line, want.Bytes())
			}
			if row.Error != "" {
				errorRows++
			}
		}
	}
	if errorRows == 0 {
		t.Fatal("cancelled job streamed no error rows")
	}
}

// TestReplicateCodecMatchesEncodingJSON: the /v1/replicate push is exactly
// json.Marshal's bytes, and decodeReplicate reads it (and everything else)
// as json.Unmarshal does.
func TestReplicateCodecMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 6))
	ints := func() []int {
		if rng.IntN(3) == 0 {
			return nil
		}
		out := make([]int, rng.IntN(4))
		for i := range out {
			out[i] = rng.IntN(200) - 1
		}
		return out
	}
	for i := 0; i < 500; i++ {
		fp := []string{"v2-0123abcd", "<&>", ""}[rng.IntN(3)]
		res := dynring.Result{
			Outcome: dynring.Outcome(rng.IntN(5)), Rounds: rng.IntN(1000), Explored: rng.IntN(2) == 0,
			ExploredRound: rng.IntN(50) - 1, TerminatedAt: ints(), Terminated: rng.IntN(3),
			Moves: ints(), TotalMoves: rng.IntN(1000), CycleStart: rng.IntN(2),
		}
		want, _ := json.Marshal(replicateRequest{Fingerprint: fp, Result: res})
		got := appendReplicate(nil, fp, &res)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendReplicate\n got %s\nwant %s", got, want)
		}
		back, err := decodeReplicate(got)
		if err != nil || !reflect.DeepEqual(back, replicateRequest{Fingerprint: fp, Result: res}) {
			t.Fatalf("decodeReplicate(%s) = %+v, %v", got, back, err)
		}
	}
	for _, in := range []string{
		`{"fingerprint":"a","result":{"Rounds":3},"extra":1}`,
		`{"Fingerprint":"a","result":null}`,
		`{"fingerprint":"a"} junk`,
		`{"fingerprint":"a","fingerprint":"b"}`,
	} {
		got, err := decodeReplicate([]byte(in))
		var want replicateRequest
		werr := json.Unmarshal([]byte(in), &want)
		if (err == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
			t.Errorf("decodeReplicate(%s) = %+v, %v; encoding/json %+v, %v", in, got, err, want, werr)
		}
	}
}

// FuzzDecodeReplicate: decodeReplicate never panics, accepts exactly what
// json.Unmarshal accepts, agrees with it on every accepted input, and an
// accepted envelope re-encodes through appendReplicate to json.Marshal's
// bytes.
func FuzzDecodeReplicate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeReplicate(data)
		var want replicateRequest
		werr := json.Unmarshal(data, &want)
		if (err == nil) != (werr == nil) {
			t.Fatalf("decodeReplicate(%q) error %v, encoding/json %v", data, err, werr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeReplicate(%q) = %+v, encoding/json %+v", data, got, want)
		}
		enc, _ := json.Marshal(got)
		if app := appendReplicate(nil, got.Fingerprint, &got.Result); !bytes.Equal(app, enc) {
			t.Fatalf("appendReplicate = %s, json.Marshal %s", app, enc)
		}
	})
}

// scribbleBody is a request body that remembers every buffer it was read
// into, so a test can overwrite exactly the bytes a handler read.
type scribbleBody struct {
	r    *bytes.Reader
	bufs [][]byte
}

func (b *scribbleBody) Read(p []byte) (int, error) {
	b.bufs = append(b.bufs, p)
	return b.r.Read(p)
}

func (b *scribbleBody) Close() error { return nil }

// scribbleWriter overwrites its request body's buffers with 'x' the moment
// the handler starts its answer: after the body was decoded and its
// buffer went back to the pool, before any /v1/run row executes.
type scribbleWriter struct {
	*httptest.ResponseRecorder
	body *scribbleBody
}

func (w *scribbleWriter) scribble() {
	for _, p := range w.body.bufs {
		for i := range p {
			p[i] = 'x'
		}
	}
	w.body.bufs = nil
}

func (w *scribbleWriter) WriteHeader(code int) {
	w.scribble()
	w.ResponseRecorder.WriteHeader(code)
}

func (w *scribbleWriter) Write(p []byte) (int, error) {
	w.scribble()
	return w.ResponseRecorder.Write(p)
}

// postScribbled serves one POST whose body buffer is scribbled over once
// decoded; known selects a body of known length (read in one ReadFull)
// over a streamed one.
func postScribbled(h http.Handler, path, contentType string, body []byte, known bool) *httptest.ResponseRecorder {
	sb := &scribbleBody{r: bytes.NewReader(body)}
	req := httptest.NewRequest(http.MethodPost, path, sb)
	req.ContentLength = -1
	if known {
		req.ContentLength = int64(len(body))
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	w := &scribbleWriter{ResponseRecorder: httptest.NewRecorder(), body: sb}
	h.ServeHTTP(w, req)
	return w.ResponseRecorder
}

// pooledScenarios are the rows the pooled-body test sends, in the
// canonical form and, through an escape in the first name, in the form
// only encoding/json reads.
func pooledScenarios() []dynring.ScenarioSpec {
	var out []dynring.ScenarioSpec
	for i, algo := range []string{"KnownNNoChirality", "UnconsciousExploration", "KnownNNoChirality"} {
		out = append(out, dynring.ScenarioSpec{
			Name: fmt.Sprintf("pooled-%d", i), Algorithm: algo, Size: 6 + i, Seed: int64(i + 1),
			Adversary: &dynring.AdversarySpec{Kind: "random", P: 0.4},
		})
	}
	return out
}

// escapeFirst sends a canonical body down the encoding/json fallback by
// spelling the first '-' as \u002d.
func escapeFirst(body []byte) []byte {
	return bytes.Replace(body, []byte("-"), []byte(`\u002d`), 1)
}

// wantRun runs a decoded row locally: what any node must answer for it.
func wantRun(t *testing.T, sc dynring.Scenario) (string, dynring.Result) {
	t.Helper()
	fp, err := sc.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return fp, res
}

// TestPooledBodiesAreCopiedOut: POST /v1/sweeps, a batched POST /v1/run
// and POST /v1/replicate each return their body buffer to the pool once
// decoded. Scribbling over that buffer afterwards changes nothing: not the
// job's names and fingerprints, not the rows it streams or the batch
// answers, not the adopted envelope. Both decoder paths, and bodies of
// known and unknown length, are covered.
func TestPooledBodiesAreCopiedOut(t *testing.T) {
	m := mustNew(t, Options{Workers: 2, CacheSize: 64})
	defer m.Close()
	h := NewHandler(m)
	canonical, err := json.Marshal(dynring.SweepSpec{Scenarios: pooledScenarios()})
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	for _, sp := range pooledScenarios() {
		line, _ := json.Marshal(dynring.RunRequest{Scenario: sp})
		lines = append(lines, line)
	}
	batch := append(bytes.Join(lines, []byte("\n\n")), '\n')
	for _, known := range []bool{true, false} {
		for _, body := range [][]byte{canonical, escapeFirst(canonical)} {
			spec, err := dynring.DecodeSweepSpec(bytes.Clone(body))
			if err != nil {
				t.Fatal(err)
			}
			scs, err := spec.ScenarioList()
			if err != nil {
				t.Fatal(err)
			}
			rec := postScribbled(h, "/v1/sweeps", "", body, known)
			if rec.Code != http.StatusCreated {
				t.Fatalf("POST /v1/sweeps: %d %s", rec.Code, rec.Body)
			}
			var st dynring.JobStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			j, _ := m.Job(st.ID)
			waitDone(t, j)
			req, res := newTestRequest(http.MethodGet, "/v1/sweeps/"+j.ID+"/results", nil)
			h.ServeHTTP(res, req)
			rows := bytes.Split(bytes.TrimSuffix(res.Body.Bytes(), []byte("\n")), []byte("\n"))
			if len(rows) != len(scs) {
				t.Fatalf("streamed %d rows for %d scenarios", len(rows), len(scs))
			}
			for i, sc := range scs {
				fp, want := wantRun(t, sc)
				if j.scenarios[i].Name != sc.Name || j.fps[i] != fp {
					t.Errorf("job row %d is %q %s, want %q %s", i, j.scenarios[i].Name, j.fps[i], sc.Name, fp)
				}
				var row dynring.ResultRow
				if err := dynring.ParseResultRow(rows[i], &row); err != nil {
					t.Fatal(err)
				}
				if row.Name != sc.Name || row.Fingerprint != fp || row.Error != "" || !reflect.DeepEqual(*row.Result, want) {
					t.Errorf("streamed row %d = %s, want %q %s %+v", i, rows[i], sc.Name, fp, want)
				}
			}
		}

		for _, body := range [][]byte{batch, escapeFirst(batch)} {
			want := map[string]dynring.Result{}
			rows, err := decodeRunBody(bytes.Clone(body), true)
			if err != nil {
				t.Fatal(err)
			}
			for _, sc := range rows.scs {
				fp, res := wantRun(t, sc)
				want[fp] = res
			}
			rec := postScribbled(h, "/v1/run", ndjsonType, body, known)
			if rec.Code != http.StatusOK {
				t.Fatalf("POST /v1/run: %d %s", rec.Code, rec.Body)
			}
			got := bytes.Split(bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")), []byte("\n"))
			if len(got) != len(want) {
				t.Fatalf("batch answered %d lines for %d rows", len(got), len(want))
			}
			for _, line := range got {
				var rr dynring.RunResponse
				if err := dynring.ParseRunResponse(line, &rr); err != nil {
					t.Fatal(err)
				}
				res, ok := want[rr.Fingerprint]
				if !ok || rr.Error != "" || !reflect.DeepEqual(*rr.Result, res) {
					t.Errorf("batch line %s, want one of %v", line, want)
				}
				delete(want, rr.Fingerprint)
			}
		}
	}

	rm := mustNew(t, Options{Workers: 1, CacheSize: 8, Cluster: ClusterOptions{
		Self: "http://127.0.0.1:0", Peers: []string{"http://127.0.0.1:1"}, Replicas: 2,
	}})
	defer rm.Close()
	rh := NewHandler(rm)
	res := dynring.Result{Outcome: 1, Rounds: 9, Explored: true, TerminatedAt: []int{3, 4}, Terminated: 2, Moves: []int{5, 6}, TotalMoves: 11}
	canonical = appendReplicate(nil, "v2-pooled", &res)
	for _, known := range []bool{true, false} {
		for _, body := range [][]byte{canonical, escapeFirst(canonical)} {
			want, err := decodeReplicate(bytes.Clone(body))
			if err != nil {
				t.Fatal(err)
			}
			rec := postScribbled(rh, "/v1/replicate", "", body, known)
			if rec.Code != http.StatusNoContent {
				t.Fatalf("POST /v1/replicate: %d %s", rec.Code, rec.Body)
			}
			if got, ok := rm.cache.Get(want.Fingerprint); !ok || !reflect.DeepEqual(got, want.Result) {
				t.Errorf("adopted envelope %s = %+v (present %v), want %+v", want.Fingerprint, got, ok, want.Result)
			}
		}
	}
	if n := rm.met.replAdopted.Value(); n != 4 {
		t.Errorf("adopted envelopes counted %d, want 4", n)
	}
}

// FuzzDecodeRunBody: decodeRunBody never panics; in either form it
// accepts a body exactly when every row decodes, validates and
// fingerprints — the whole body, or each non-blank line of a batch —
// and each row is DecodeRunRequest of its line, then Scenario, then
// Fingerprint. Overwriting the body afterwards leaves the rows unchanged.
func FuzzDecodeRunBody(f *testing.F) {
	var lines [][]byte
	for _, sp := range pooledScenarios() {
		line, _ := json.Marshal(dynring.RunRequest{Scenario: sp})
		lines = append(lines, line)
		f.Add(line, false)
	}
	f.Add(bytes.Join(lines, []byte("\n")), true)
	f.Add(append(bytes.Join(lines, []byte("\n \r\n\n")), '\n'), true)
	f.Add(escapeFirst(lines[0]), true)
	f.Add([]byte("\n\n"), true)
	f.Add([]byte(""), false)
	f.Fuzz(func(t *testing.T, data []byte, batch bool) {
		body := bytes.Clone(data)
		got, err := decodeRunBody(body, batch)
		rows := [][]byte{data}
		if batch {
			rows = nil
			for _, line := range bytes.Split(data, []byte("\n")) {
				if len(bytes.TrimSpace(line)) > 0 {
					rows = append(rows, line)
				}
			}
		}
		var want admitted
		for _, row := range rows {
			req, err := dynring.DecodeRunRequest(row)
			if err != nil {
				break
			}
			sc, err := req.Scenario.Scenario()
			if err != nil || sc.Validate() != nil {
				break
			}
			fp, err := sc.Fingerprint()
			if err != nil {
				break
			}
			want.scs, want.fps = append(want.scs, sc), append(want.fps, fp)
		}
		if ok := len(rows) > 0 && len(want.scs) == len(rows); (err == nil) != ok {
			t.Fatalf("decodeRunBody(%q, %v) error %v, want ok=%v", data, batch, err, ok)
		}
		if err != nil {
			return
		}
		for i := range body {
			body[i] = 'x'
		}
		if len(got.scs) != len(want.scs) || len(got.fps) != len(want.fps) {
			t.Fatalf("decodeRunBody(%q, %v): %d rows, want %d", data, batch, len(got.scs), len(want.scs))
		}
		for i := range got.scs {
			if got.fps[i] != want.fps[i] || !reflect.DeepEqual(scenarioData(got.scs[i]), scenarioData(want.scs[i])) {
				t.Fatalf("decodeRunBody(%q, %v) row %d = %+v %s, want %+v %s", data, batch, i, got.scs[i], got.fps[i], want.scs[i], want.fps[i])
			}
		}
	})
}

// TestDecodeRunBodyAllocatesForDecodedLines: a batch's rows take room
// only for lines that decode, so a 1 MiB body of blank lines, or of
// lines that fail, allocates at most about twice its size (the newline
// count as a hint allocated 224 MB and 112 MB), and a batch's rows come
// back at their exact count, past the stack arrays included.
func TestDecodeRunBodyAllocatesForDecodedLines(t *testing.T) {
	const size = 1 << 20
	line, _ := json.Marshal(dynring.RunRequest{Scenario: pooledScenarios()[0]})
	for name, tc := range map[string]struct {
		body []byte
		ok   bool
	}{
		"blank lines":          {bytes.Repeat([]byte{'\n'}, size), false},
		"x lines":              {bytes.Repeat([]byte("x\n"), size/2), false},
		"one row, then blanks": {append(append(line, '\n'), bytes.Repeat([]byte(" \n"), size/2)...), true},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeRunBody(tc.body, true)
		runtime.ReadMemStats(&after)
		if (err == nil) != tc.ok {
			t.Errorf("%s: decodeRunBody error %v, want ok=%v", name, err, tc.ok)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 2*uint64(len(tc.body)) {
			t.Errorf("%s: decoding a %d-byte body allocated %d bytes", name, len(tc.body), got)
		}
	}
	for _, n := range []int{1, 16, 17, 40} {
		body := bytes.Repeat(append(line, '\n'), n)
		rows, err := decodeRunBody(body, true)
		if err != nil || len(rows.scs) != n || cap(rows.scs) != n || len(rows.fps) != n || cap(rows.fps) != n {
			t.Errorf("%d-line batch: %d rows, caps %d and %d, error %v; want %d at exact capacity",
				n, len(rows.scs), cap(rows.scs), cap(rows.fps), err, n)
		}
	}
}

// scenarioData is sc without its function-valued fields, which
// reflect.DeepEqual cannot compare; the adversary factory is covered by
// AdversaryLabel and the fingerprint.
func scenarioData(sc dynring.Scenario) dynring.Scenario {
	sc.NewAdversary, sc.NewProtocols, sc.Observer = nil, nil, nil
	return sc
}

// soloHotSpec is a 48-row explicit spec shaped like perfbench's solo-hot
// grids: three terminating algorithms × four sizes × {random(p=0.5),
// greedy} × two seeds, each row named by its coordinates and seed.
func soloHotSpec() dynring.SweepSpec {
	var rows []dynring.ScenarioSpec
	seed := int64(1) << 40
	for _, algo := range []string{"KnownNNoChirality", "LandmarkWithChirality", "PTBoundWithChirality"} {
		for _, n := range []int{8, 12, 16, 24} {
			for _, adv := range []dynring.AdversarySpec{{Kind: "random", P: 0.5}, {Kind: "greedy"}} {
				for range 2 {
					seed = seed*6364136223846793005 + 1442695040888963407
					s := int64(uint64(seed) >> 2)
					rows = append(rows, dynring.ScenarioSpec{
						Name: fmt.Sprintf("%s/n=%d/%s/%d", algo, n, adv.Label(), s), Algorithm: algo, Size: n, Seed: s,
						Adversary: &adv,
					})
				}
			}
		}
	}
	return dynring.SweepSpec{Scenarios: rows}
}

// TestAdmissionAllocBound gates what POST /v1/sweeps allocates to admit a
// solo-hot-shaped 48-row body before the scheduler sees it — decode,
// expand and fingerprint (admitSweep) and the job that keeps the rows
// (newJob) — and what Submit allocates to admit the same rows from a
// SweepSpec. Every allocation left is one the job keeps: per row a name,
// a fingerprint, an adversary factory and, for random(p=0.5), its label;
// per job the row arrays and the job itself. Decode, expand and
// fingerprint alone took 677 allocations (14.1 per row) before decoding
// reused pooled storage and each row was resolved once.
func TestAdmissionAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
	spec := soloHotSpec()
	body, err := spec.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	post := testing.AllocsPerRun(100, func() {
		a, err := admitSweep(body)
		if err != nil || len(a.scs) != len(spec.Scenarios) {
			t.Fatalf("admitSweep: %d rows, %v", len(a.scs), err)
		}
		newJob("sw-1", "trace", a.scs, a.fps, time.Time{})
	})
	submit := testing.AllocsPerRun(100, func() {
		if _, _, err := dynring.AdmitRows(nil, nil, &spec, nil, false); err != nil {
			t.Fatal(err)
		}
	})
	const maxPost, maxSubmit = 175, 122
	if post > maxPost || submit > maxSubmit {
		rows := float64(len(spec.Scenarios))
		t.Fatalf("admitting a %.0f-row spec allocates %.0f (%.2f per row) from a body and %.0f (%.2f per row) from a spec, want ≤ %d and ≤ %d",
			rows, post, post/rows, submit, submit/rows, maxPost, maxSubmit)
	}
}

// TestReusedDecodeStorageLeavesJobsUnchanged: POST /v1/sweeps decodes into
// storage pooled across requests. A sweep whose rows set names, starts,
// orientations and adversaries, then a shorter one that sets none of them,
// then one as long as the first with other values, all through one
// handler: every job keeps exactly the scenarios and fingerprints a fresh
// decode of its own body gives — none of an earlier body's fields leak
// into a later job, and no later body rewrites an earlier job — and the
// first job streams the same bytes before and after the others.
func TestReusedDecodeStorageLeavesJobsUnchanged(t *testing.T) {
	m := mustNew(t, Options{Workers: 2, CacheSize: 64})
	defer m.Close()
	h := NewHandler(m)
	full := func(shift int) dynring.SweepSpec {
		var rows []dynring.ScenarioSpec
		for i, adv := range []dynring.AdversarySpec{{Kind: "pin", Pin: 1}, {Kind: "random", P: 0.3, Act: 0.5}, {Kind: "persistent", Edge: 2}} {
			rows = append(rows, dynring.ScenarioSpec{
				Name: fmt.Sprintf("full-%d-%d", shift, i), Algorithm: "KnownNNoChirality", Size: 7 + i,
				Starts: []int{shift + i, shift + i + 3}, Orients: []string{"cw", "ccw"}, Adversary: &adv, Seed: int64(shift + i),
			})
		}
		return dynring.SweepSpec{Scenarios: rows}
	}
	specs := []dynring.SweepSpec{
		full(0),
		{Scenarios: []dynring.ScenarioSpec{{Algorithm: "KnownNNoChirality", Size: 9}}},
		full(1),
	}
	var jobs []*Job
	var firstStream []byte
	stream := func(j *Job) []byte {
		req, res := newTestRequest(http.MethodGet, "/v1/sweeps/"+j.ID+"/results", nil)
		h.ServeHTTP(res, req)
		return res.Body.Bytes()
	}
	var bodies [][]byte
	for _, spec := range specs {
		body, err := spec.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	for k, body := range bodies {
		req, res := newTestRequest(http.MethodPost, "/v1/sweeps", body)
		h.ServeHTTP(res, req)
		if res.Code != http.StatusCreated {
			t.Fatalf("POST /v1/sweeps %d: %d %s", k, res.Code, res.Body)
		}
		var st dynring.JobStatus
		if err := json.Unmarshal(res.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		j, _ := m.Job(st.ID)
		waitDone(t, j)
		jobs = append(jobs, j)
		if k == 0 {
			firstStream = stream(j)
		}
		for i, j := range jobs {
			fresh, err := dynring.DecodeSweepSpec(bodies[i])
			if err != nil {
				t.Fatal(err)
			}
			scs, err := fresh.ScenarioList()
			if err != nil {
				t.Fatal(err)
			}
			if len(j.scenarios) != len(scs) {
				t.Fatalf("after body %d, job %d holds %d rows, want %d", k, i, len(j.scenarios), len(scs))
			}
			for r, sc := range scs {
				fp, err := sc.Fingerprint()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(scenarioData(j.scenarios[r]), scenarioData(sc)) || j.fps[r] != fp {
					t.Errorf("after body %d, job %d row %d = %+v %s, want %+v %s",
						k, i, r, scenarioData(j.scenarios[r]), j.fps[r], scenarioData(sc), fp)
				}
			}
		}
	}
	if again := stream(jobs[0]); !bytes.Equal(again, firstStream) {
		t.Errorf("first job streams\\n%s\\nafter later bodies, and streamed\\n%s\\nbefore them", again, firstStream)
	}
}
