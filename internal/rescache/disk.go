package rescache

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
)

// Disk is the durable, content-addressed second tier below the in-memory
// LRU: one file per key, so identical grids survive process restarts with
// zero re-executions. It relies on the same key contract as Cache — equal
// keys imply identical values — which is what makes replaying a file
// written by an earlier process (or an earlier release, for versioned
// fingerprints) correct.
//
// Durability discipline:
//
//   - Every write lands in a ".tmp" sibling first and is renamed into
//     place, so a crash — SIGKILL mid-write, disk full — can leave a stale
//     tmp file but never a half-written entry under a live name.
//   - Writes are asynchronous: Put enqueues on a bounded queue drained by
//     one background writer, keeping the executing worker off the disk's
//     latency. Close flushes the queue before returning, which is what
//     ringsimd's -drain relies on.
//   - Reads (Get, warm start) treat corruption as absence: a file that
//     fails to decode, carries the wrong key, or is truncated is skipped
//     and logged, never fatal. Leftover tmp files are deleted on Open.
//
// All methods are safe for concurrent use.
type Disk[V any] struct {
	dir  string
	logf func(format string, args ...any)

	mu      sync.Mutex
	index   map[string]int64 // key → entry file size in bytes
	bytes   int64
	hits    uint64
	misses  uint64
	skipped int // corrupt/foreign files ignored since Open

	queue  chan diskWrite[V]
	closed bool
	done   chan struct{}
}

// diskWrite is one queued Put.
type diskWrite[V any] struct {
	key string
	val V
}

// envelope is the on-disk JSON document. The key is stored inside the file
// — filenames are derived from keys but not trusted to reproduce them —
// so a renamed or hand-copied entry can never serve the wrong key.
type envelope[V any] struct {
	Key   string `json:"key"`
	Value V      `json:"value"`
}

// writeQueueDepth bounds the asynchronous write queue. A full queue makes
// Put block (backpressure) rather than drop durability on the floor.
const writeQueueDepth = 256

// entrySuffix and tmpSuffix name the entry and in-flight files.
const (
	entrySuffix = ".json"
	tmpSuffix   = ".tmp"
)

// OpenDisk opens (creating if needed) the durable tier rooted at dir and
// scans it: leftover tmp files from an interrupted writer are removed,
// every well-formed entry filed under its own key's name is indexed, and
// — when warm is non-nil — its decoded value is handed to warm, which is
// how the service preloads its LRU on boot. Corrupt, truncated or
// misnamed entries are counted, logged through logf (when non-nil) and
// skipped; they are not deleted, so a bad entry can be inspected post
// hoc, and a later Put of its key repairs it.
func OpenDisk[V any](dir string, logf func(format string, args ...any), warm func(key string, val V)) (*Disk[V], error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &Disk[V]{
		dir:   dir,
		logf:  logf,
		index: make(map[string]int64),
		queue: make(chan diskWrite[V], writeQueueDepth),
		done:  make(chan struct{}),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		path := filepath.Join(dir, name)
		if strings.HasSuffix(name, tmpSuffix) {
			// An interrupted write: the rename never happened, so the
			// entry does not exist. Deleting the leftover is safe by
			// construction and keeps the directory self-cleaning.
			os.Remove(path)
			continue
		}
		if !strings.HasSuffix(name, entrySuffix) {
			continue
		}
		env, size, err := readEntry[V](path)
		if err == nil && name != fileName(env.Key) {
			// A renamed or hand-copied entry: Get and Put address a key
			// by fileName, so indexing it would claim a key this tier
			// can neither serve nor write.
			err = fmt.Errorf("entry for key %q belongs in %s", env.Key, fileName(env.Key))
		}
		if err != nil {
			d.skipped++
			d.warnf("rescache: skipping corrupt disk entry %s: %v", path, err)
			continue
		}
		d.index[env.Key] = size
		d.bytes += size
		if warm != nil {
			warm(env.Key, env.Value)
		}
	}
	go d.writer()
	return d, nil
}

// readEntry decodes one entry file, rejecting trailing garbage. The
// envelope is generic over V, so it stays on encoding/json rather than the
// hand-written wire codec; disk reads are off the hot path.
func readEntry[V any](path string) (envelope[V], int64, error) {
	var env envelope[V]
	buf, err := os.ReadFile(path)
	if err != nil {
		return env, 0, err
	}
	if err := json.Unmarshal(buf, &env); err != nil {
		return env, 0, err
	}
	if env.Key == "" {
		return env, 0, fmt.Errorf("entry has no key")
	}
	return env, int64(len(buf)), nil
}

// Get reads the entry for key from disk. A decode failure, a key mismatch
// (a corrupted or tampered file) or a written entry whose file has since
// vanished drops the entry from the index and misses, so Keys stops
// listing it and a later Put writes it again. Only a queued reservation's
// missing file is a plain miss.
func (d *Disk[V]) Get(key string) (V, bool) {
	var zero V
	d.mu.Lock()
	size, ok := d.index[key]
	if !ok {
		d.misses++
		d.mu.Unlock()
		return zero, false
	}
	d.mu.Unlock()
	env, _, err := readEntry[V](filepath.Join(d.dir, fileName(key)))
	d.mu.Lock()
	defer d.mu.Unlock()
	if err == nil && env.Key == key {
		d.hits++
		return env.Value, true
	}
	d.misses++
	if size == 0 && errors.Is(err, os.ErrNotExist) {
		// A queued-but-unflushed reservation: the entry will appear once
		// the writer drains. A miss, not corruption.
		return zero, false
	}
	if cur, still := d.index[key]; still {
		delete(d.index, key)
		d.bytes -= cur
	}
	d.skipped++
	d.warnf("rescache: disk entry for %s unreadable, treating as absent: %v", key, err)
	return zero, false
}

// Put queues key's value for durable write. Re-putting a key that is
// already durable (or already queued) is a no-op by the key contract.
// When the write queue is full Put blocks — durability is backpressure,
// not best-effort. Put after Close is dropped.
func (d *Disk[V]) Put(key string, val V) {
	if key == "" {
		return
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	if _, ok := d.index[key]; ok {
		d.mu.Unlock()
		return
	}
	// Reserve the key with size 0 before queueing: a concurrent Put of the
	// same key becomes the no-op above instead of a duplicate write, and
	// Get serves it from disk only after the writer fills the real size in
	// (a reserved-but-unwritten entry reads as corrupt→absent, which is
	// within contract). The writer replaces the reservation.
	d.index[key] = 0
	d.mu.Unlock()
	d.queue <- diskWrite[V]{key: key, val: val}
}

// writer is the single background goroutine draining the write queue.
func (d *Disk[V]) writer() {
	defer close(d.done)
	for w := range d.queue {
		d.writeEntry(w.key, w.val)
	}
}

// writeEntry performs one atomic entry write: encode, write tmp sibling,
// rename into place, update the index. Failures roll the reservation back
// so a later Put can retry.
func (d *Disk[V]) writeEntry(key string, val V) {
	name := fileName(key)
	tmp := filepath.Join(d.dir, name+tmpSuffix)
	buf, err := json.Marshal(envelope[V]{Key: key, Value: val})
	if err == nil {
		buf = append(buf, '\n')
		err = os.WriteFile(tmp, buf, 0o644)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err == nil {
		// Renamed under the lock, so the file appears together with its
		// size in the index: Get reads a missing file whose size it saw
		// nonzero as vanished, and one it saw as a reservation as queued.
		if err = os.Rename(tmp, filepath.Join(d.dir, name)); err != nil {
			os.Remove(tmp)
		}
	}
	if err != nil {
		delete(d.index, key)
		d.warnf("rescache: durable write for %s failed: %v", key, err)
		return
	}
	// Replace the Put reservation (or, after a corrupt-entry eviction and
	// re-Put, the stale size) rather than double-counting bytes.
	d.bytes += int64(len(buf)) - d.index[key]
	d.index[key] = int64(len(buf))
}

// Close flushes every queued write and stops the writer. Further Puts are
// dropped; Get keeps working (the tier stays readable through shutdown).
func (d *Disk[V]) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		<-d.done
		return
	}
	d.closed = true
	d.mu.Unlock()
	close(d.queue)
	<-d.done
}

// Keys returns a point-in-time snapshot of the indexed keys, queued
// reservations included, in no particular order. The anti-entropy pass
// uses it as the set-union basis between replica disk tiers. An indexed
// key is a claim, not a guarantee — a corrupt entry stays indexed until a
// Get evicts it — so a serving side must re-read (and thereby validate)
// every entry it hands out rather than trusting this listing.
func (d *Disk[V]) Keys() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	keys := make([]string, 0, len(d.index))
	for k := range d.index {
		keys = append(keys, k)
	}
	return keys
}

// DiskStats is a consistent snapshot of the durable tier.
type DiskStats struct {
	// Entries and Bytes describe the indexed entries (queued-but-unwritten
	// reservations count as entries with zero bytes).
	Entries int
	Bytes   int64
	// QueueDepth is the number of writes waiting for the background
	// writer; -drain flushes it to zero before exit.
	QueueDepth int
	// Hits and Misses count Get outcomes; Skipped counts corrupt or
	// unreadable entries ignored since Open.
	Hits    uint64
	Misses  uint64
	Skipped int
}

// Stats snapshots the tier's counters.
func (d *Disk[V]) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DiskStats{
		Entries:    len(d.index),
		Bytes:      d.bytes,
		QueueDepth: len(d.queue),
		Hits:       d.hits,
		Misses:     d.misses,
		Skipped:    d.skipped,
	}
}

// warnf logs through the configured logger, if any. Callers hold d.mu or
// run before the writer starts.
func (d *Disk[V]) warnf(format string, args ...any) {
	if d.logf != nil {
		d.logf(format, args...)
	}
}

// safeName matches keys usable as filenames directly — scenario
// fingerprints (32 hex chars) always are, which keeps the directory
// human-greppable by fingerprint.
var safeName = regexp.MustCompile(`^[A-Za-z0-9._-]{1,128}$`)

// fileName maps a key to its entry filename. Keys that cannot be filenames
// (separators, unprintables, over-long) fall back to a sha256 digest name;
// the authoritative key lives inside the envelope either way, and Get
// verifies it, so even a digest collision or a hand-renamed file can only
// miss — never serve the wrong key.
func fileName(key string) string {
	if safeName.MatchString(key) && !strings.HasPrefix(key, "x-") {
		return key + entrySuffix
	}
	return "x-" + fmt.Sprintf("%x", sha256.Sum256([]byte(key))) + entrySuffix
}
