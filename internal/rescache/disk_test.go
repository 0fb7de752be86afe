package rescache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

type dval struct {
	N  int    `json:"n"`
	S  string `json:"s"`
	Xs []int  `json:"xs,omitempty"`
}

func openDisk(t *testing.T, dir string, warm func(string, dval)) *Disk[dval] {
	t.Helper()
	d, err := OpenDisk[dval](dir, t.Logf, warm)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// TestDiskPutGetFlush: a Put becomes durable by Close (the -drain
// contract), and a fresh open serves it back.
func TestDiskPutGetFlush(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, nil)
	for i := 0; i < 50; i++ {
		d.Put(fmt.Sprintf("%032x", i), dval{N: i, S: "payload", Xs: []int{i, i + 1}})
	}
	d.Close() // must flush all 50 queued writes
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 50 {
		t.Fatalf("after Close: %d entry files on disk, want 50 (err=%v)", len(files), err)
	}
	if st := d.Stats(); st.QueueDepth != 0 || st.Entries != 50 {
		t.Fatalf("stats after flush: %+v", st)
	}

	warmed := map[string]dval{}
	d2 := openDisk(t, dir, func(k string, v dval) { warmed[k] = v })
	if len(warmed) != 50 {
		t.Fatalf("warm start handed %d entries, want 50", len(warmed))
	}
	got, ok := d2.Get(fmt.Sprintf("%032x", 7))
	if !ok || got.N != 7 || got.Xs[1] != 8 {
		t.Fatalf("Get after restart = %+v, %v", got, ok)
	}
	if st := d2.Stats(); st.Hits != 1 || st.Bytes <= 0 {
		t.Fatalf("stats after restart get: %+v", st)
	}
}

// TestDiskCorruptEntriesSkipped: truncated, garbage and trailing-junk
// entries — and an entry whose embedded key disagrees with its filename —
// are logged and skipped on open and on Get, never fatal, and a re-Put
// repairs the key.
func TestDiskCorruptEntriesSkipped(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, nil)
	d.Put("goodkey", dval{N: 1})
	d.Put("truncated", dval{N: 2})
	d.Put("garbage", dval{N: 3})
	d.Put("trailing", dval{N: 4})
	d.Close()

	// Sabotage three entries the way a crash or bitrot would: garbage, a
	// truncated file, and a valid entry followed by junk.
	if err := os.WriteFile(filepath.Join(dir, "garbage.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	tail, err := os.ReadFile(filepath.Join(dir, "trailing.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "trailing.json"), append(tail, "junk"...), 0o644); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(dir, "truncated.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "truncated.json"), full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var logged []string
	logf := func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	warmed := map[string]dval{}
	d2, err := OpenDisk[dval](dir, logf, func(k string, v dval) { warmed[k] = v })
	if err != nil {
		t.Fatalf("corrupt entries must not fail open: %v", err)
	}
	defer d2.Close()
	if len(warmed) != 1 || warmed["goodkey"].N != 1 {
		t.Fatalf("warm start = %v, want only goodkey", warmed)
	}
	if st := d2.Stats(); st.Skipped != 3 {
		t.Fatalf("skipped = %d, want 3", st.Skipped)
	}
	if len(logged) != 3 {
		t.Fatalf("corruption must be logged, got %q", logged)
	}
	if _, ok := d2.Get("garbage"); ok {
		t.Fatal("corrupt entry served")
	}
	// A fresh Put repairs the corrupted key.
	d2.Put("garbage", dval{N: 33})
	d2.Close()
	d3 := openDisk(t, dir, nil)
	if got, ok := d3.Get("garbage"); !ok || got.N != 33 {
		t.Fatalf("repaired entry = %+v, %v", got, ok)
	}

	// Key/filename mismatch (hand-copied file) must not serve under the
	// wrong key.
	if err := os.Rename(filepath.Join(dir, "garbage.json"), filepath.Join(dir, "stolen.json")); err != nil {
		t.Fatal(err)
	}
	d5, err := OpenDisk[dval](dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d5.Close()
	if _, ok := d5.Get("stolen"); ok {
		t.Fatal("renamed entry served under its filename key")
	}
}

// TestDiskTmpLeftoverIgnored is the SIGTERM-during-write regression: a
// partial ".tmp" file (the writer died before rename) must be invisible to
// a warm start — the atomic rename is the only publication point — and is
// cleaned up on open.
func TestDiskTmpLeftoverIgnored(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, nil)
	d.Put("survivor", dval{N: 9})
	d.Close()
	// Simulate dying mid-write: a half-encoded envelope under a tmp name,
	// exactly what WriteFile leaves when the process is killed between
	// open and the final write/rename.
	tmp := filepath.Join(dir, "victim.json.tmp")
	if err := os.WriteFile(tmp, []byte(`{"key":"victim","value":{"n":`), 0o644); err != nil {
		t.Fatal(err)
	}

	warmed := map[string]dval{}
	var logged []string
	d2, err := OpenDisk[dval](dir, func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) },
		func(k string, v dval) { warmed[k] = v })
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if len(warmed) != 1 || warmed["survivor"].N != 9 {
		t.Fatalf("warm start = %v, want only survivor", warmed)
	}
	if st := d2.Stats(); st.Skipped != 0 {
		t.Fatalf("a tmp leftover is not corruption, skipped = %d", st.Skipped)
	}
	if _, ok := d2.Get("victim"); ok {
		t.Fatal("partial write became visible")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("tmp leftover not cleaned up on open")
	}
}

// TestDiskUnsafeKeys: keys that cannot be filenames round-trip through the
// hex quoting, including across restart.
func TestDiskUnsafeKeys(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, nil)
	keys := []string{"a/b", "dynring/scenario/v2:abc", strings.Repeat("k", 200), "x-already"}
	for i, k := range keys {
		d.Put(k, dval{N: i})
	}
	d.Close()
	d2 := openDisk(t, dir, nil)
	for i, k := range keys {
		if got, ok := d2.Get(k); !ok || got.N != i {
			t.Fatalf("key %q = %+v, %v", k, got, ok)
		}
	}
}

// TestDiskConcurrentHammer drives concurrent Put/Get/Stats under -race.
func TestDiskConcurrentHammer(t *testing.T) {
	d := openDisk(t, t.TempDir(), nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("key-%d", i%40)
				if i%3 == 0 {
					d.Put(k, dval{N: i % 40})
				} else if v, ok := d.Get(k); ok && v.N != i%40 {
					t.Errorf("key %s served %d", k, v.N)
				}
				if i%50 == 0 {
					d.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	d.Close()
	if st := d.Stats(); st.Entries != 40 || st.QueueDepth != 0 {
		t.Fatalf("after hammer: %+v", st)
	}
	// Every entry must be durable and well-formed.
	n := 0
	d3 := openDisk(t, d.dir, func(string, dval) { n++ })
	defer d3.Close()
	if n != 40 {
		t.Fatalf("warm start found %d entries, want 40", n)
	}
}

// TestDiskKeys: the index snapshot lists every Put key (queued writes
// included), and a corrupt entry stays listed until a Get
// evicts it — Keys is a claim set, not a validity proof.
func TestDiskKeys(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, nil)
	want := map[string]bool{}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("%032x", i)
		want[k] = true
		d.Put(k, dval{N: i})
	}
	got := map[string]bool{}
	for _, k := range d.Keys() {
		got[k] = true
	}
	if len(got) != len(want) {
		t.Fatalf("Keys listed %d entries, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("Keys missing %s", k)
		}
	}
	d.Close()

	// Corrupt one entry on disk: a fresh open still indexes it (the key
	// inside the truncated JSON is unreadable, so the scan skips it — but
	// a valid-at-scan entry corrupted later stays listed until Get).
	victim := fmt.Sprintf("%032x", 3)
	path := filepath.Join(dir, victim+".json")
	if err := os.WriteFile(path, []byte(`{"key":"`+victim+`","value":{"n":`), 0o644); err != nil {
		t.Fatal(err)
	}
	d2 := openDisk(t, dir, nil)
	defer d2.Close()
	if len(d2.Keys()) != 19 {
		t.Fatalf("scan-time corruption: %d keys, want 19 (corrupt entry unreadable at scan)", len(d2.Keys()))
	}
	if _, ok := d2.Get(victim); ok {
		t.Fatal("corrupt entry served")
	}
}

// TestDiskVanishedEntryIsRewritten: a written entry whose file is removed
// behind the tier's back is evicted on Get like a corrupt one — Keys
// stops listing it and Stats counts it skipped — so a later Put writes it
// again instead of treating the key as already durable.
func TestDiskVanishedEntryIsRewritten(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, nil)
	key := fmt.Sprintf("%032x", 42)
	path := filepath.Join(dir, key+".json")
	written := func() {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if _, err := os.Stat(path); err == nil {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("entry file never written")
			}
		}
	}
	d.Put(key, dval{N: 42})
	written()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(key); ok {
		t.Fatal("vanished entry served")
	}
	if keys := d.Keys(); len(keys) != 0 {
		t.Fatalf("Keys still lists %v after the file vanished", keys)
	}
	if st := d.Stats(); st.Skipped != 1 || st.Bytes != 0 {
		t.Fatalf("stats after eviction: %+v, want 1 skipped and 0 bytes", st)
	}
	d.Put(key, dval{N: 42})
	written()
	if got, ok := d.Get(key); !ok || got.N != 42 {
		t.Fatalf("rewritten entry = %+v, %v", got, ok)
	}
}

// TestDiskReadableFromPut: an indexed key is readable — Get hits the
// moment Put returns, before the writer has touched the disk, and Stats
// counts the queued entry at its encoded size. Put keeps its own encoded
// copy, so a caller mutating its value after Put changes neither what Get
// serves nor what reaches the disk.
func TestDiskReadableFromPut(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, nil)
	const n = 300
	for i := range n {
		k := fmt.Sprintf("%032x", i)
		v := dval{N: i, S: "kept", Xs: []int{i, i}}
		d.Put(k, v)
		v.S, v.Xs[0] = "mutated", -1
		got, ok := d.Get(k)
		if !ok {
			t.Fatalf("Get(%s) missed right after Put (stats %+v)", k, d.Stats())
		}
		if got.S != "kept" || got.Xs[0] != i {
			t.Fatalf("Get(%s) = %+v, want the value as Put saw it", k, got)
		}
	}
	st := d.Stats()
	if st.Hits != n || st.Misses != 0 || st.Entries != n {
		t.Fatalf("stats = %+v, want %d hits, 0 misses, %d entries", st, n, n)
	}
	want := 0
	for i := range n {
		b, err := json.Marshal(envelope[dval]{Key: fmt.Sprintf("%032x", i), Value: dval{N: i, S: "kept", Xs: []int{i, i}}})
		if err != nil {
			t.Fatal(err)
		}
		want += len(b) + 1
	}
	if st.Bytes != int64(want) {
		t.Fatalf("Bytes = %d, want %d (every entry at its encoded size)", st.Bytes, want)
	}
	d.Close()
	mutated := 0
	openDisk(t, dir, func(_ string, v dval) {
		if v.S != "kept" || v.Xs[0] != v.N {
			mutated++
		}
	})
	if mutated != 0 {
		t.Fatalf("%d/%d entries on disk carry a mutation made after Put", mutated, n)
	}
}

// TestDiskKeysHammer is the -race gate for the anti-entropy access
// pattern: concurrent Keys snapshots interleaved with Put, Get, Stats,
// and a mid-hammer Close must be data-race free, and every Keys snapshot
// must be internally consistent (no torn strings, every key well-formed).
func TestDiskKeysHammer(t *testing.T) {
	d := openDisk(t, t.TempDir(), nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("key-%d", (g*100+i)%60)
				switch i % 3 {
				case 0:
					d.Put(k, dval{N: i})
				case 1:
					d.Get(k)
				default:
					for _, got := range d.Keys() {
						if !strings.HasPrefix(got, "key-") {
							t.Errorf("torn key in snapshot: %q", got)
							return
						}
					}
				}
			}
		}(g)
	}
	// Close races with the hammer on purpose: post-Close Puts must be
	// dropped and Keys/Get must keep serving what was flushed.
	d.Close()
	close(stop)
	wg.Wait()
	if got, entries := len(d.Keys()), d.Stats().Entries; got != entries {
		t.Fatalf("Keys length %d disagrees with Stats entries %d after close", got, entries)
	}
}

// TestDiskPutAfterCloseDropped: the shutdown contract — late Puts are
// dropped, Gets keep serving.
func TestDiskPutAfterCloseDropped(t *testing.T) {
	d := openDisk(t, t.TempDir(), nil)
	d.Put("k", dval{N: 1})
	d.Close()
	d.Put("late", dval{N: 2})
	if _, ok := d.Get("late"); ok {
		t.Fatal("post-Close Put stored")
	}
	if v, ok := d.Get("k"); !ok || v.N != 1 {
		t.Fatal("Get after Close must keep serving durable entries")
	}
}

// TestDiskMisnamedEntrySkipped: an entry whose file name is not
// fileName(its key) — renamed or hand-copied — is skipped at open like a
// corrupt one. Indexing it would list a key that Get cannot read and
// that Put treats as already durable, so the key could never be written.
func TestDiskMisnamedEntrySkipped(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "aaa.json"), []byte(`{"key":"bbb","value":{"n":1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var logged []string
	logf := func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	warmed := map[string]dval{}
	d, err := OpenDisk[dval](dir, logf, func(k string, v dval) { warmed[k] = v })
	if err != nil {
		t.Fatal(err)
	}
	if keys := d.Keys(); len(keys) != 0 {
		t.Fatalf("Keys() = %q, want none", keys)
	}
	if len(warmed) != 0 {
		t.Fatalf("warm start = %v, want nothing", warmed)
	}
	if st := d.Stats(); st.Skipped != 1 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats = %+v, want 1 skipped and an empty index", st)
	}
	if len(logged) != 1 {
		t.Fatalf("misnamed entry must be logged once, got %q", logged)
	}
	d.Put("bbb", dval{N: 2})
	d.Close()
	if _, err := os.Stat(filepath.Join(dir, "bbb.json")); err != nil {
		t.Fatalf("Put of the misnamed entry's key was not written: %v", err)
	}
	d2 := openDisk(t, dir, nil)
	if got, ok := d2.Get("bbb"); !ok || got.N != 2 {
		t.Fatalf("Get(bbb) after reopen = %+v, %v; want N=2", got, ok)
	}
}

// FuzzDiskEntry writes one arbitrary file into an empty tier and opens
// it: the scan must not panic, every key Keys() lists must be served by
// Get, and each served value must survive Put, Close and a reopen.
func FuzzDiskEntry(f *testing.F) {
	good := `{"key":"aaa","value":{"n":1,"s":"x","xs":[1,2]}}`
	f.Add("aaa.json", good)
	f.Add("aaa.json", `{"key":"bbb","value":{"n":1}}`) // misnamed
	f.Add("aaa.json", good[:len(good)/2])              // truncated
	f.Add("aaa.json", good+"junk")                     // trailing bytes
	f.Add("aaa.json", good+"\n")
	f.Add(".json", `{"key":"","value":{"n":1}}`) // empty key
	f.Add("aaa.json.tmp", good)
	f.Fuzz(func(t *testing.T, name, content string) {
		if name == "" || name == "." || name == ".." || strings.ContainsAny(name, "/\\\x00") || len(name) > 200 {
			t.Skip()
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Skip()
		}
		d, err := OpenDisk[dval](dir, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		served := map[string]dval{}
		for _, k := range d.Keys() {
			v, ok := d.Get(k)
			if !ok {
				t.Fatalf("Keys() lists %q but Get misses", k)
			}
			served[k] = v
			d.Put(k, v)
			d.Put(k+"-rt", v)
		}
		d.Close()
		d2, err := OpenDisk[dval](dir, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer d2.Close()
		for k, v := range served {
			for _, key := range []string{k, k + "-rt"} {
				got, ok := d2.Get(key)
				if !ok {
					t.Fatalf("Get(%q) after reopen missed", key)
				}
				if a, b := mustJSON(t, got), mustJSON(t, v); a != b {
					t.Fatalf("Get(%q) after reopen = %s, want %s", key, a, b)
				}
			}
		}
	})
}

// mustJSON encodes v for comparison: an entry's empty and omitted Xs
// decode differently but encode alike, and are the same entry.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDiskCloseWhilePutsBlock: Close while Puts are blocked on a full
// write queue, or about to send on it, neither panics nor loses a Put
// that Close ordered before itself: every Put that returns before Close
// is flushed, and the rest are dropped.
func TestDiskCloseWhilePutsBlock(t *testing.T) {
	for round := range 5 {
		dir := t.TempDir()
		d, err := OpenDisk[dval](dir, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range 2 * writeQueueDepth {
					d.Put(fmt.Sprintf("%d-%d-%d", round, g, i), dval{N: i})
				}
			}()
		}
		for d.Stats().QueueDepth < writeQueueDepth/2 {
			runtime.Gosched()
		}
		d.Close()
		wg.Wait()
		entries := d.Stats().Entries
		n := 0
		d2 := openDisk(t, dir, func(string, dval) { n++ })
		d2.Close()
		if n != entries {
			t.Fatalf("round %d: %d entries indexed at Close, %d on disk after it", round, entries, n)
		}
	}
}
