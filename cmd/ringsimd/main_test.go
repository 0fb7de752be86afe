package main

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynring"
)

// syncBuffer is a goroutine-safe bytes.Buffer: run() writes from the server
// goroutine while the test polls.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestRunFlagErrors(t *testing.T) {
	var out syncBuffer
	if err := run(context.Background(), &out, []string{"-bogus"}); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run(context.Background(), &out, []string{"-addr", "500.500.500.500:99999"}); err == nil {
		t.Fatal("unlistenable address accepted")
	}
	// The ring is -self plus -peers, so a node missing from its own member
	// list would place keys unlike the nodes that list it.
	err := run(context.Background(), &out, []string{"-self", "http://127.0.0.1:1", "-peers", "http://127.0.0.1:2,http://127.0.0.1:3"})
	if err == nil || !strings.Contains(err.Error(), "-peers must include -self") {
		t.Fatalf("-peers without -self: err = %v", err)
	}
	// The comparison trims a trailing slash on either side; the boot then
	// fails on the address alone.
	err = run(context.Background(), &out, []string{"-addr", "500.500.500.500:99999",
		"-self", "http://127.0.0.1:1/", "-peers", "http://127.0.0.1:1,http://127.0.0.1:2/"})
	if err == nil || strings.Contains(err.Error(), "-peers") {
		t.Fatalf("-self listed with a trailing slash: err = %v, want only the address error", err)
	}

	// An occupied -addr is reported before the node probes its peers or
	// changes the process's profile rates.
	var peerHits atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		peerHits.Add(1)
	}))
	defer peer.Close()
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	selfURL := "http://" + busy.Addr().String()
	err = run(context.Background(), &out, []string{"-addr", busy.Addr().String(),
		"-self", selfURL, "-peers", selfURL + "," + peer.URL,
		"-profile-fraction", "5", "-pprof", "127.0.0.1:0"})
	if err == nil {
		t.Fatal("occupied -addr accepted")
	}
	time.Sleep(200 * time.Millisecond)
	if n := peerHits.Load(); n != 0 {
		t.Fatalf("a failed boot sent %d requests to its peer", n)
	}
	if frac := runtime.SetMutexProfileFraction(-1); frac != 0 {
		t.Fatalf("a failed boot left the mutex profile fraction at %d", frac)
	}
}

// TestBootSubmitShutdown boots the daemon on an ephemeral port, pushes one
// sweep through the public Client, and exercises graceful shutdown.
func TestBootSubmitShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, &out, []string{"-addr", "127.0.0.1:0", "-workers", "2", "-cache", "64"})
	}()

	urlRe := regexp.MustCompile(`listening on (http://[0-9.:]+)`)
	var base string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if m := urlRe.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if base == "" {
		t.Fatalf("daemon never announced its address:\n%s", out.String())
	}

	client := dynring.NewClient(base)
	spec := dynring.SweepSpec{
		Base:        dynring.ScenarioSpec{Landmark: 0},
		Algorithms:  []string{"KnownNNoChirality"},
		Sizes:       []int{6, 8},
		Seeds:       []int64{1, 2},
		Adversaries: []dynring.AdversarySpec{{Kind: "random", P: 0.4}},
	}
	results, err := client.RunSweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("scenario %s: %v", r.Scenario.Name, r.Err)
		}
	}
	stats, err := client.ServiceStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executions != 4 || stats.Workers != 2 {
		t.Fatalf("stats %+v", stats)
	}

	cancel() // SIGINT equivalent
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(out.String(), "shut down") {
		t.Fatalf("no shutdown line:\n%s", out.String())
	}
}
