package runner

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Stats is a cache hit/miss snapshot.
type Stats struct {
	// Hits counts Do calls served from a completed or in-flight
	// computation (waiting on another caller's computation counts: the
	// work was shared).
	Hits int64
	// Misses counts Do calls that missed the in-memory table. With a
	// disk layer attached a memory miss may still be served from disk;
	// DiskMisses counts the calls that genuinely recomputed.
	Misses int64
	// DiskHits counts memory misses served from the persistent layer —
	// values computed by an earlier process (or an earlier suite in this
	// one) and restored without recomputation.
	DiskHits int64
	// DiskMisses counts persistent lookups that found nothing usable and
	// ran the computation.
	DiskMisses int64
}

// Add returns the field-wise sum of two snapshots.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Hits:       s.Hits + o.Hits,
		Misses:     s.Misses + o.Misses,
		DiskHits:   s.DiskHits + o.DiskHits,
		DiskMisses: s.DiskMisses + o.DiskMisses,
	}
}

// String renders the snapshot for progress output.
func (s Stats) String() string {
	if s.DiskHits == 0 && s.DiskMisses == 0 {
		return fmt.Sprintf("%d hits, %d misses", s.Hits, s.Misses)
	}
	return fmt.Sprintf("%d hits, %d misses; disk: %d hits, %d misses",
		s.Hits, s.Misses, s.DiskHits, s.DiskMisses)
}

// Cache is a content-addressed memo table with single-flight semantics:
// concurrent Do calls for the same key run the computation once and share
// the outcome. Errors are cached too — the experiment substrate is
// deterministic, so a failed computation would fail identically on
// retry. By default the table keeps every entry; SetMaxEntries bounds
// the completed ones.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	// maxDone bounds the completed entries kept (0: unbounded); lru
	// orders them most recently used first while it is set.
	maxDone int
	lru     list.List
	disk    *DiskCache
	hits    atomic.Int64
	misses  atomic.Int64
	dhits   atomic.Int64
	dmisses atomic.Int64
}

type cacheEntry struct {
	key  string
	done chan struct{}
	val  any
	err  error
	// elem is the entry's place in Cache.lru once it completed under a
	// bound; nil while in flight or when the cache is unbounded.
	elem *list.Element
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*cacheEntry)}
}

// AttachDisk adds a persistent layer: DoPersist calls that miss the
// in-memory table consult (and populate) d before computing. Attach
// before concurrent use; a nil d detaches.
func (c *Cache) AttachDisk(d *DiskCache) { c.disk = d }

// SetMaxEntries keeps at most n completed entries in memory, evicting
// the least recently used (a hit refreshes an entry); n <= 0 keeps every
// entry. In-flight computations are never evicted, so single-flight
// holds. An evicted key is served again from the disk layer or
// recomputed, so bound only caches whose values are persisted or cheap
// to recompute identically. Set before concurrent use.
func (c *Cache) SetMaxEntries(n int) { c.maxDone = max(n, 0) }

// Do returns the cached value for key, computing it with compute on the
// first request. Concurrent callers with the same key block until the
// first caller's computation finishes. A caller whose ctx is canceled
// while waiting returns ctx.Err() without disturbing the computation.
func (c *Cache) Do(ctx context.Context, key string, compute func() (any, error)) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		select {
		case <-e.done:
			c.hits.Add(1)
			return e.val, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e := &cacheEntry{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	c.misses.Add(1)
	e.val, e.err = compute()
	close(e.done)
	if c.maxDone > 0 {
		c.mu.Lock()
		e.elem = c.lru.PushFront(e)
		for c.lru.Len() > c.maxDone {
			old := c.lru.Remove(c.lru.Back()).(*cacheEntry)
			delete(c.entries, old.key)
		}
		c.mu.Unlock()
	}
	return e.val, e.err
}

// Stats returns the current hit/miss counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		DiskHits:   c.dhits.Load(),
		DiskMisses: c.dmisses.Load(),
	}
}

// Codec serializes cached values for the persistent layer.
type Codec[T any] struct {
	// Marshal renders the value; an error skips persistence (the value
	// stays memory-cached).
	Marshal func(T) ([]byte, error)
	// Unmarshal restores a value from a stored payload; an error treats
	// the entry as a miss.
	Unmarshal func([]byte) (T, error)
}

// JSONCodec is the default codec: encoding/json both ways.
func JSONCodec[T any]() Codec[T] {
	return Codec[T]{
		Marshal: func(v T) ([]byte, error) { return json.Marshal(v) },
		Unmarshal: func(data []byte) (T, error) {
			var v T
			err := json.Unmarshal(data, &v)
			return v, err
		},
	}
}

// DoPersist is Do with a persistent layer: a memory miss first consults
// the cache's attached DiskCache under the same key, and a computed value
// is written back for future processes. Single-flight semantics are
// unchanged — concurrent callers share one disk read or one computation.
// Errors are memory-cached (the substrate is deterministic) but never
// persisted. Without an attached disk this is Do with typed results.
func DoPersist[T any](ctx context.Context, c *Cache, key string, codec Codec[T], compute func() (T, error)) (T, error) {
	v, err := c.Do(ctx, key, func() (any, error) {
		if c.disk != nil {
			if data, ok := c.disk.Get(key); ok {
				if restored, derr := codec.Unmarshal(data); derr == nil {
					c.dhits.Add(1)
					return restored, nil
				}
			}
		}
		if c.disk != nil {
			c.dmisses.Add(1)
		}
		computed, err := compute()
		if err != nil {
			return nil, err
		}
		if c.disk != nil {
			if data, merr := codec.Marshal(computed); merr == nil {
				// Best effort: a full disk degrades to memory-only caching.
				_ = c.disk.Put(key, data)
			}
		}
		return computed, nil
	})
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// Len returns the number of keys held in memory, completed or in
// flight: every key ever requested unless SetMaxEntries bounds the
// table.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Signature builds a canonical run signature for content addressing:
// an ordered sequence of field=value pairs with unambiguous value
// rendering, hashed to a fixed-size key. Two runs share a cache slot iff
// every input that can change their outcome renders identically.
type Signature struct {
	b strings.Builder
}

// Sig starts a signature of the given kind ("run", "chain", ...).
func Sig(kind string) *Signature {
	s := &Signature{}
	s.b.WriteString(kind)
	return s
}

// Add appends one named field. Values render canonically: floats via
// strconv 'g' (shortest round-trip form), strings quoted (so separators
// inside values cannot collide with the signature's own), fmt.Stringer
// through String, other types via %v.
func (s *Signature) Add(field string, values ...any) *Signature {
	s.b.WriteByte('|')
	s.b.WriteString(field)
	s.b.WriteByte('=')
	for i, v := range values {
		if i > 0 {
			s.b.WriteByte(',')
		}
		s.b.WriteString(canonical(v))
	}
	return s
}

func canonical(v any) string {
	switch x := v.(type) {
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case float32:
		return strconv.FormatFloat(float64(x), 'g', -1, 32)
	case string:
		return strconv.Quote(x)
	case fmt.Stringer:
		return strconv.Quote(x.String())
	default:
		return fmt.Sprintf("%v", v)
	}
}

// String returns the canonical (human-readable) form.
func (s *Signature) String() string { return s.b.String() }

// Key returns the content address: the hex SHA-256 of the canonical form.
func (s *Signature) Key() string {
	sum := sha256.Sum256([]byte(s.b.String()))
	return hex.EncodeToString(sum[:])
}
