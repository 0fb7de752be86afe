package rescache

import (
	"crypto/sha256"
	"encoding/json"
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
//   - Writes are asynchronous, and invisible: Put encodes the entry and
//     indexes it at once, and one background writer drains a bounded
//     queue to disk, keeping the executing worker off the disk's latency.
//     Until its file is in place, Get serves the entry from the encoded
//     bytes Put kept, so an indexed key is always readable. Close flushes
//     the queue before returning, which is what ringsimd's -drain relies
//     on.
//   - Reads (Get, warm start) treat corruption as absence: a file that
//     fails to decode, carries the wrong key, or is truncated is skipped
//     and logged, never fatal. Leftover tmp files are deleted on Open.
//
// All methods are safe for concurrent use.
type Disk[V any] struct {
	dir  string
	logf func(format string, args ...any)

	mu    sync.Mutex
	index map[string]int64 // key → encoded entry size in bytes
	// pending holds the encoded entry of each indexed key whose file the
	// writer has not yet renamed into place.
	pending map[string][]byte
	bytes   int64
	hits    uint64
	misses  uint64
	skipped int // corrupt/foreign files ignored since Open

	// sendMu guards closed, and orders Close after every Put already
	// sending on queue.
	sendMu sync.RWMutex
	closed bool
	queue  chan string
	done   chan struct{}
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
		dir:     dir,
		logf:    logf,
		index:   make(map[string]int64),
		pending: make(map[string][]byte),
		queue:   make(chan string, writeQueueDepth),
		done:    make(chan struct{}),
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
		env, size, err := decodeEntry[V](os.ReadFile(path))
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

// decodeEntry decodes one encoded entry of size len(buf), rejecting
// trailing garbage and an empty key; a non-nil err (the read's) passes
// through. The envelope is generic over V, so it stays on encoding/json
// rather than the hand-written wire codec; disk reads are off the hot path.
func decodeEntry[V any](buf []byte, err error) (envelope[V], int64, error) {
	var env envelope[V]
	if err == nil {
		err = json.Unmarshal(buf, &env)
	}
	if err == nil && env.Key == "" {
		err = fmt.Errorf("entry has no key")
	}
	return env, int64(len(buf)), err
}

// Get reads the entry for key: from the bytes Put kept while its write is
// queued, from its file after. A decode failure, a key mismatch (a
// corrupted or tampered file) or a file that has vanished drops the entry
// from the index and misses, so Keys stops listing it and a later Put
// writes it again.
func (d *Disk[V]) Get(key string) (V, bool) {
	var zero V
	d.mu.Lock()
	_, ok := d.index[key]
	buf, queued := d.pending[key]
	if !ok {
		d.misses++
		d.mu.Unlock()
		return zero, false
	}
	d.mu.Unlock()
	var err error
	if !queued {
		buf, err = os.ReadFile(filepath.Join(d.dir, fileName(key)))
	}
	env, _, err := decodeEntry[V](buf, err)
	if err == nil && env.Key != key {
		err = fmt.Errorf("entry holds key %q", env.Key)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err == nil {
		d.hits++
		return env.Value, true
	}
	d.misses++
	d.bytes -= d.index[key]
	delete(d.index, key)
	delete(d.pending, key)
	d.skipped++
	d.warnf("rescache: disk entry for %s unreadable, treating as absent: %v", key, err)
	return zero, false
}

// Put encodes key's value, indexes it — readable from this moment on —
// and queues it for durable write. The encoded bytes are the tier's own,
// so the caller may mutate val once Put returns. Re-putting a key that is
// already indexed is a no-op by the key contract. When the write queue is
// full Put blocks — durability is backpressure, not best-effort. Put
// after Close is dropped.
func (d *Disk[V]) Put(key string, val V) {
	buf, err := json.Marshal(envelope[V]{Key: key, Value: val})
	d.sendMu.RLock()
	defer d.sendMu.RUnlock()
	d.mu.Lock()
	if err != nil {
		d.warnf("rescache: durable write for %s failed: %v", key, err)
	}
	if _, ok := d.index[key]; ok || d.closed || key == "" || err != nil {
		d.mu.Unlock()
		return
	}
	buf = append(buf, '\n')
	d.index[key] = int64(len(buf))
	d.bytes += int64(len(buf))
	d.pending[key] = buf
	d.mu.Unlock()
	d.queue <- key
}

// writer is the single background goroutine draining the write queue.
func (d *Disk[V]) writer() {
	defer close(d.done)
	for key := range d.queue {
		d.writeEntry(key)
	}
}

// writeEntry performs one atomic entry write: write the queued bytes to a
// tmp sibling, then rename it into place. A failure drops the key so a
// later Put can retry.
func (d *Disk[V]) writeEntry(key string) {
	d.mu.Lock()
	buf, ok := d.pending[key]
	d.mu.Unlock()
	if !ok {
		return // dropped by Get since Put queued it
	}
	name := fileName(key)
	tmp := filepath.Join(d.dir, name+tmpSuffix)
	err := os.WriteFile(tmp, buf, 0o644)
	d.mu.Lock()
	defer d.mu.Unlock()
	if err == nil {
		// The rename and the pending drop share one critical section, so
		// Get finds the queued bytes or the file, never neither.
		if err = os.Rename(tmp, filepath.Join(d.dir, name)); err != nil {
			os.Remove(tmp)
		}
	}
	delete(d.pending, key)
	if err != nil {
		d.bytes -= d.index[key]
		delete(d.index, key)
		d.warnf("rescache: durable write for %s failed: %v", key, err)
	}
}

// Close flushes every queued write and stops the writer. A Put that has
// indexed its entry when Close starts, blocked on a full queue or not,
// finishes queueing it first; further Puts are dropped. Get keeps working
// (the tier stays readable through shutdown).
func (d *Disk[V]) Close() {
	d.sendMu.Lock()
	if !d.closed {
		close(d.queue)
	}
	d.closed = true
	d.sendMu.Unlock()
	<-d.done
}

// Keys returns a point-in-time snapshot of the indexed keys, queued
// writes included, in no particular order. The anti-entropy pass
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
	// Entries and Bytes describe the indexed entries, queued writes
	// included at their encoded size.
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
