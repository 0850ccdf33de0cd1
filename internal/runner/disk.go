package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// DiskCache is the persistent layer under the memo cache: a directory of
// content-addressed entries, one file per cache key. It turns the
// per-process cache into a warm store that survives restarts — a second
// process pointed at the same directory serves every previously computed
// value from disk instead of recomputing it.
//
// Durability and integrity rules:
//
//   - Writes are atomic: the payload goes to a temp file in the same
//     directory and is renamed into place, so a concurrent reader (or a
//     crash mid-write) never observes a half-written entry.
//   - Every entry carries a versioned header with the payload length and
//     SHA-256. A truncated, corrupted, or wrong-version entry is treated
//     as a miss (and removed), never as data.
//   - Multiple processes may share one directory; last writer wins, and
//     since keys are content addresses all writers store the same value.
//   - With a size cap (SetMaxBytes) the directory is swept after every
//     write: least-recently-used entries — by modification time, which
//     Get refreshes on every hit — are evicted until the cap holds.
//     Eviction is safe under sharing: a concurrently evicted entry just
//     reads as a miss and is recomputed.
type DiskCache struct {
	dir string

	mu       sync.Mutex
	maxBytes int64
}

// diskMagic is the entry header magic + format version. Bump the version
// when the entry format (not the cached values) changes; old entries then
// read as misses.
const diskMagic = "hetsim-cache v1"

// entryExt keeps cache entries distinguishable from stray files; only
// *.entry files are touched by Purge and counted by Info.
const entryExt = ".entry"

// OpenDiskCache opens (creating if needed) a cache directory.
func OpenDiskCache(dir string) (*DiskCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("runner: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: cache dir: %w", err)
	}
	return &DiskCache{dir: dir}, nil
}

// SetMaxBytes caps the directory's total entry size (header + payload)
// in bytes; 0 (the default) means unbounded. The cap is enforced by an
// LRU sweep after every Put — and once immediately, so reopening a
// directory with a smaller cap trims it right away. Oversized single
// entries are still stored: the sweep never removes the newest entry.
func (d *DiskCache) SetMaxBytes(n int64) error {
	if n < 0 {
		return fmt.Errorf("runner: negative cache size cap %d", n)
	}
	d.mu.Lock()
	d.maxBytes = n
	d.mu.Unlock()
	return d.sweep()
}

func (d *DiskCache) path(key string) string {
	// Keys are hex digests from Signature.Key; anything else is hashed
	// down so arbitrary keys can never escape the directory.
	if len(key) != 64 || strings.IndexFunc(key, func(r rune) bool {
		return !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f')
	}) >= 0 {
		sum := sha256.Sum256([]byte(key))
		key = hex.EncodeToString(sum[:])
	}
	return filepath.Join(d.dir, key+entryExt)
}

// Get returns the payload stored under key. Missing, truncated, corrupt,
// or wrong-version entries report a miss; damaged files are removed so
// the next Put can heal the slot.
func (d *DiskCache) Get(key string) ([]byte, bool) {
	path := d.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	payload, ok := decodeEntry(raw)
	if !ok {
		os.Remove(path)
		return nil, false
	}
	// Refresh the entry's recency for the LRU sweep. Best effort: a
	// failed touch only makes the entry look colder than it is.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	return payload, true
}

// Put stores payload under key atomically (write to a temp file, then
// rename). An existing entry is overwritten.
func (d *DiskCache) Put(key string, payload []byte) error {
	path := d.path(key)
	tmp, err := os.CreateTemp(d.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("runner: cache put: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(encodeEntry(payload)); err != nil {
		tmp.Close()
		return fmt.Errorf("runner: cache put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("runner: cache put: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("runner: cache put: %w", err)
	}
	return d.sweep()
}

// sweep enforces the size cap: while the directory's entries exceed
// MaxBytes, the least-recently-used entry (oldest modification time,
// name as the deterministic tie-break) is evicted. The newest entry is
// never evicted, so a single oversized payload still caches. One sweep
// runs at a time per process; concurrent processes may race on removal,
// which is harmless (ENOENT is skipped).
func (d *DiskCache) sweep() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.maxBytes <= 0 {
		return nil
	}
	names, err := d.entryNames()
	if err != nil {
		return err
	}
	type entry struct {
		name  string
		size  int64
		mtime time.Time
	}
	var (
		entries []entry
		total   int64
	)
	for _, name := range names {
		fi, err := os.Stat(filepath.Join(d.dir, name))
		if err != nil {
			continue // concurrently evicted
		}
		entries = append(entries, entry{name, fi.Size(), fi.ModTime()})
		total += fi.Size()
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return entries[i].name < entries[j].name
	})
	for i := 0; total > d.maxBytes && i < len(entries)-1; i++ {
		if err := os.Remove(filepath.Join(d.dir, entries[i].name)); err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return fmt.Errorf("runner: cache sweep: %w", err)
		}
		total -= entries[i].size
	}
	return nil
}

// Info reports the entry count and total payload+header bytes on disk.
func (d *DiskCache) Info() (entries int, bytes int64, err error) {
	names, err := d.entryNames()
	if err != nil {
		return 0, 0, err
	}
	for _, name := range names {
		fi, err := os.Stat(filepath.Join(d.dir, name))
		if err != nil {
			continue
		}
		entries++
		bytes += fi.Size()
	}
	return entries, bytes, nil
}

// Purge removes every cache entry (but not the directory or any foreign
// files inside it) and reports how many entries were deleted.
func (d *DiskCache) Purge() (removed int, err error) {
	names, err := d.entryNames()
	if err != nil {
		return 0, err
	}
	for _, name := range names {
		if err := os.Remove(filepath.Join(d.dir, name)); err != nil {
			return removed, fmt.Errorf("runner: cache purge: %w", err)
		}
		removed++
	}
	return removed, nil
}

func (d *DiskCache) entryNames() ([]string, error) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("runner: cache dir: %w", err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), entryExt) {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// encodeEntry frames a payload: one header line carrying the format
// version, payload length, and payload SHA-256, then the raw payload.
func encodeEntry(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("%s %d %s\n", diskMagic, len(payload), hex.EncodeToString(sum[:]))
	out := make([]byte, 0, len(header)+len(payload))
	out = append(out, header...)
	out = append(out, payload...)
	return out
}

// decodeEntry validates the frame and returns the payload. Any deviation
// — wrong magic or version, bad length, checksum mismatch — is corrupt.
func decodeEntry(raw []byte) ([]byte, bool) {
	nl := strings.IndexByte(string(raw[:min(len(raw), 256)]), '\n')
	if nl < 0 {
		return nil, false
	}
	header := string(raw[:nl])
	rest := raw[nl+1:]
	if !strings.HasPrefix(header, diskMagic+" ") {
		return nil, false
	}
	fields := strings.Fields(strings.TrimPrefix(header, diskMagic+" "))
	if len(fields) != 2 {
		return nil, false
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil || n != len(rest) {
		return nil, false
	}
	sum := sha256.Sum256(rest)
	if hex.EncodeToString(sum[:]) != fields[1] {
		return nil, false
	}
	return rest, true
}
