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
	// Hits counts lookups served from a completed or in-flight
	// computation (waiting on another caller's computation counts: the
	// work was shared).
	Hits int64
	// Misses counts lookups that missed the in-memory table. With a
	// disk layer a memory miss may still be served from disk;
	// DiskMisses counts the calls that genuinely recomputed.
	Misses int64
	// DiskHits counts memory misses served from the persistent layer —
	// values computed by an earlier process (or evicted from this one's
	// memory) and restored without recomputation.
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

// memEntries bounds the completed entries a disk-backed cache keeps in
// memory. An evicted entry is restored from disk, or recomputed
// identically when the disk layer dropped it, so the bound changes
// memory, never values: a long-running server stays flat while one-off
// specs stream through, and hot entries, used most recently, stay
// memory hits.
const memEntries = 64

// Cache is a content-addressed memo table with single-flight semantics:
// concurrent callers of the same key run the computation once and share
// the outcome, and DoPersist is its one entry point. Errors are cached
// too — the experiment substrate is deterministic, so a failed
// computation would fail identically on retry — except a failure after
// the computing caller's context ended: that is no result, so the next
// caller computes again. A disk-backed cache keeps the memEntries most
// recently used completed entries in memory; a memory-only one has
// nowhere to restore from and keeps every entry.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	// lru orders the completed entries of a disk-backed cache, most
	// recently used first.
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
	// canceled marks a computation cut short by its caller's context;
	// it left the table before done closed.
	canceled bool
	// elem is the entry's place in Cache.lru once it completed in a
	// disk-backed cache; nil otherwise.
	elem *list.Element
}

// NewCache returns an empty cache over disk, the persistent layer
// DoPersist consults on a memory miss and fills after a computation
// (nil: memory only).
func NewCache(disk *DiskCache) *Cache {
	return &Cache{entries: make(map[string]*cacheEntry), disk: disk}
}

// do returns the cached value for key, computing it with compute on the
// first request. Concurrent callers with the same key block until the
// first caller's computation finishes. A caller whose ctx is canceled
// while waiting returns ctx.Err() without disturbing the computation; a
// computation that fails after its own caller's ctx ended is dropped,
// and a waiter whose ctx is still live computes again.
func (c *Cache) do(ctx context.Context, key string, compute func() (any, error)) (any, error) {
	for {
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
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if e.canceled {
				continue
			}
			c.hits.Add(1)
			return e.val, e.err
		}
		e := &cacheEntry{key: key, done: make(chan struct{})}
		c.entries[key] = e
		c.mu.Unlock()

		c.misses.Add(1)
		e.val, e.err = compute()
		c.mu.Lock()
		switch {
		case e.err != nil && ctx.Err() != nil:
			e.canceled = true
			delete(c.entries, key)
		case c.disk != nil:
			e.elem = c.lru.PushFront(e)
			for c.lru.Len() > memEntries {
				old := c.lru.Remove(c.lru.Back()).(*cacheEntry)
				delete(c.entries, old.key)
			}
		}
		c.mu.Unlock()
		close(e.done)
		return e.val, e.err
	}
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

// DoPersist returns the value memoized under key, computing it with
// compute on the first request. A memory miss first consults the
// cache's DiskCache under the same key, and a computed value is written
// back for future processes; concurrent callers share one disk read or
// one computation. Errors are memory-cached (the substrate is
// deterministic) but never persisted.
func DoPersist[T any](ctx context.Context, c *Cache, key string, codec Codec[T], compute func() (T, error)) (T, error) {
	v, err := c.do(ctx, key, func() (any, error) {
		if c.disk != nil {
			if data, ok := c.disk.Get(key); ok {
				if restored, derr := codec.Unmarshal(data); derr == nil {
					c.dhits.Add(1)
					return restored, nil
				}
			}
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
// flight: every key ever requested in a memory-only cache, at most
// memEntries completed ones in a disk-backed cache.
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
