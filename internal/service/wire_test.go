package service

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"reflect"
	"strings"
	"testing"

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
