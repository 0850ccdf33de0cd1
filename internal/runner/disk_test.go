package runner

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestDiskPutGetRoundTrip(t *testing.T) {
	d, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Sig("test").Add("n", 1).Key()
	payload := []byte("the stored value")
	if _, ok := d.Get(key); ok {
		t.Fatal("hit before any Put")
	}
	if err := d.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload %q, want %q", got, payload)
	}
	// Overwrite wins.
	if err := d.Put(key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := d.Get(key); string(got) != "v2" {
		t.Fatalf("after overwrite got %q, want v2", got)
	}
}

func TestDiskSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d1, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Sig("test").Add("n", 2).Key()
	if err := d1.Put(key, []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	// A second handle — a later process — sees the entry.
	d2, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := d2.Get(key)
	if !ok || string(got) != "persisted" {
		t.Fatalf("reopened cache: got %q ok=%v", got, ok)
	}
}

func TestDiskArbitraryKeysStayInDir(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Keys that are not hex digests (including traversal attempts) are
	// hashed down; the entry must land inside the directory.
	for _, key := range []string{"plain", "../escape", strings.Repeat("Z", 64)} {
		if err := d.Put(key, []byte(key)); err != nil {
			t.Fatal(err)
		}
		if got, ok := d.Get(key); !ok || string(got) != key {
			t.Fatalf("key %q: got %q ok=%v", key, got, ok)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 3 {
		t.Fatalf("entries in dir = %d, want 3", len(ents))
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), entryExt) {
			t.Errorf("unexpected file %q", e.Name())
		}
	}
}

// corruptions maps a name to a mutation of a valid on-disk entry.
var corruptions = map[string]func([]byte) []byte{
	"flipped payload byte": func(raw []byte) []byte {
		out := append([]byte(nil), raw...)
		out[len(out)-1] ^= 0x01
		return out
	},
	"truncated": func(raw []byte) []byte {
		return raw[:len(raw)-3]
	},
	"wrong version": func(raw []byte) []byte {
		return bytes.Replace(raw, []byte("v1"), []byte("v9"), 1)
	},
	"no header": func([]byte) []byte {
		return []byte("not a cache entry at all")
	},
	"empty": func([]byte) []byte {
		return nil
	},
}

func TestDiskCorruptEntryIsMissAndRemoved(t *testing.T) {
	for name, corrupt := range corruptions {
		t.Run(strings.ReplaceAll(name, " ", "_"), func(t *testing.T) {
			d, err := OpenDiskCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			key := Sig("test").Add("case", name).Key()
			if err := d.Put(key, []byte("good payload")); err != nil {
				t.Fatal(err)
			}
			path := d.path(key)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := d.Get(key); ok {
				t.Fatalf("corrupt entry served as data: %q", got)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("damaged entry not removed (err=%v)", err)
			}
			// The slot heals: a fresh Put serves again.
			if err := d.Put(key, []byte("healed")); err != nil {
				t.Fatal(err)
			}
			if got, ok := d.Get(key); !ok || string(got) != "healed" {
				t.Fatalf("healed slot: got %q ok=%v", got, ok)
			}
		})
	}
}

func TestDiskInfoAndPurge(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, size, err := d.Info()
	if err != nil || entries != 0 || size != 0 {
		t.Fatalf("empty cache: entries=%d size=%d err=%v", entries, size, err)
	}
	for i := 0; i < 3; i++ {
		if err := d.Put(Sig("test").Add("i", i).Key(), []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	// A foreign file must be counted by neither Info nor Purge.
	foreign := filepath.Join(dir, "README")
	if err := os.WriteFile(foreign, []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, size, err = d.Info()
	if err != nil {
		t.Fatal(err)
	}
	if entries != 3 || size <= 0 {
		t.Fatalf("entries=%d size=%d, want 3 entries", entries, size)
	}
	removed, err := d.Purge()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 {
		t.Fatalf("purged %d, want 3", removed)
	}
	entries, _, err = d.Info()
	if err != nil || entries != 0 {
		t.Fatalf("after purge: entries=%d err=%v", entries, err)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Errorf("purge removed foreign file: %v", err)
	}
}

func TestDoPersistSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	key := Sig("test").Add("restart", 1).Key()
	codec := JSONCodec[int]()

	disk1, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewCache(disk1)
	v, err := DoPersist(ctx, c1, key, codec, func() (int, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("first compute: v=%d err=%v", v, err)
	}
	if st := c1.Stats(); st.DiskMisses != 1 || st.DiskHits != 0 {
		t.Fatalf("first process stats: %+v", st)
	}

	// A fresh Cache over the same directory is a restarted process: the
	// value must come off disk without compute ever running.
	disk2, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCache(disk2)
	v, err = DoPersist(ctx, c2, key, codec, func() (int, error) {
		t.Fatal("recomputed a persisted value")
		return 0, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("restart: v=%d err=%v", v, err)
	}
	if st := c2.Stats(); st.DiskHits != 1 || st.DiskMisses != 0 {
		t.Fatalf("restart stats: %+v", st)
	}

	// Within the restarted process the memory layer takes over.
	if _, err := DoPersist(ctx, c2, key, codec, func() (int, error) {
		t.Fatal("recomputed a memory-cached value")
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Hits != 1 {
		t.Fatalf("memory-hit stats: %+v", st)
	}
}

func TestDoPersistCorruptEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	key := Sig("test").Add("corrupt-fallback", 1).Key()
	codec := JSONCodec[string]()

	disk, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewCache(disk)
	if _, err := DoPersist(ctx, c1, key, codec, func() (string, error) { return "computed", nil }); err != nil {
		t.Fatal(err)
	}
	// Corrupt the entry on disk; the restarted process must fall back to
	// computing (and repair the entry for the process after it).
	path := disk.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := NewCache(disk)
	recomputed := false
	v, err := DoPersist(ctx, c2, key, codec, func() (string, error) {
		recomputed = true
		return "computed", nil
	})
	if err != nil || v != "computed" {
		t.Fatalf("v=%q err=%v", v, err)
	}
	if !recomputed {
		t.Fatal("corrupt entry served without recomputation")
	}
	if st := c2.Stats(); st.DiskHits != 0 || st.DiskMisses != 1 {
		t.Fatalf("stats: %+v", st)
	}
	c3 := NewCache(disk)
	if _, err := DoPersist(ctx, c3, key, codec, func() (string, error) {
		t.Fatal("repaired entry not served from disk")
		return "", nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDoPersistErrorsNeverPersisted(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	key := Sig("test").Add("err", 1).Key()
	codec := JSONCodec[int]()
	disk, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewCache(disk)
	wantErr := os.ErrDeadlineExceeded
	if _, err := DoPersist(ctx, c1, key, codec, func() (int, error) { return 0, wantErr }); err != wantErr {
		t.Fatalf("err=%v, want %v", err, wantErr)
	}
	// Memory-cached within the process...
	if _, err := DoPersist(ctx, c1, key, codec, func() (int, error) {
		t.Fatal("error should be memory-cached")
		return 0, nil
	}); err != wantErr {
		t.Fatalf("err=%v, want %v", err, wantErr)
	}
	// ...but never on disk: a restart retries.
	if entries, _, _ := disk.Info(); entries != 0 {
		t.Fatalf("error persisted: %d entries on disk", entries)
	}
	c2 := NewCache(disk)
	v, err := DoPersist(ctx, c2, key, codec, func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry after restart: v=%d err=%v", v, err)
	}
}

func TestDoPersistWithoutDiskIsDo(t *testing.T) {
	c := NewCache(nil)
	v, err := DoPersist(context.Background(), c, "k", JSONCodec[int](), func() (int, error) { return 5, nil })
	if err != nil || v != 5 {
		t.Fatalf("v=%d err=%v", v, err)
	}
	if st := c.Stats(); st.DiskHits != 0 || st.DiskMisses != 0 {
		t.Fatalf("disk counters moved without a disk: %+v", st)
	}
}

// backdate sets an entry's modification time so LRU order is
// deterministic in tests regardless of filesystem timestamp resolution.
func backdate(t *testing.T, d *DiskCache, key string, age time.Duration) {
	t.Helper()
	when := time.Now().Add(-age)
	if err := os.Chtimes(d.path(key), when, when); err != nil {
		t.Fatal(err)
	}
}

func TestDiskMaxBytesEvictsLRU(t *testing.T) {
	d, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetMaxBytes(-1); err == nil {
		t.Error("negative cap accepted")
	}
	keys := make([]string, 4)
	for i := range keys {
		keys[i] = Sig("lru").Add("i", i).Key()
	}
	payload := bytes.Repeat([]byte("x"), 100)
	for _, k := range keys[:3] {
		if err := d.Put(k, payload); err != nil {
			t.Fatal(err)
		}
	}
	_, entrySize, err := d.Info()
	if err != nil {
		t.Fatal(err)
	}
	entrySize /= 3
	backdate(t, d, keys[0], 3*time.Hour)
	backdate(t, d, keys[1], 2*time.Hour)
	backdate(t, d, keys[2], time.Hour)

	// Capping at two entries evicts only the least recently used.
	if err := d.SetMaxBytes(2 * entrySize); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(keys[0]); ok {
		t.Error("LRU entry survived the cap")
	}
	if _, ok := d.Get(keys[1]); !ok {
		t.Error("middle entry evicted")
	}

	// That Get refreshed keys[1]; keys[2] is now the coldest and must be
	// the one evicted when a new Put overflows the cap again.
	backdate(t, d, keys[2], time.Hour)
	if err := d.Put(keys[3], payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(keys[2]); ok {
		t.Error("cold entry survived; LRU should have evicted it")
	}
	for _, k := range []string{keys[1], keys[3]} {
		if _, ok := d.Get(k); !ok {
			t.Errorf("recently used entry %s evicted", k[:8])
		}
	}
}

func TestDiskMaxBytesNeverEvictsNewest(t *testing.T) {
	d, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetMaxBytes(1); err != nil {
		t.Fatal(err)
	}
	key := Sig("big").Add("n", 1).Key()
	if err := d.Put(key, bytes.Repeat([]byte("y"), 4096)); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(key); !ok {
		t.Error("oversized single entry was evicted; the newest entry must always cache")
	}
}

// TestDiskMaxBytesSurvivesRestart is the acceptance criterion for the
// size cap: a later process reopening the directory with a cap trims it
// immediately, keeps the most recently used entries, and stays under
// the cap across further writes.
func TestDiskMaxBytesSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	d1, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 6)
	payload := bytes.Repeat([]byte("z"), 64)
	for i := range keys {
		keys[i] = Sig("restart").Add("i", i).Key()
		if err := d1.Put(keys[i], payload); err != nil {
			t.Fatal(err)
		}
		backdate(t, d1, keys[i], time.Duration(len(keys)-i)*time.Hour)
	}
	_, total, err := d1.Info()
	if err != nil {
		t.Fatal(err)
	}
	entrySize := total / int64(len(keys))

	// A later process opens the same directory with a three-entry cap.
	d2, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.SetMaxBytes(3 * entrySize); err != nil {
		t.Fatal(err)
	}
	entries, size, err := d2.Info()
	if err != nil {
		t.Fatal(err)
	}
	if entries != 3 || size > 3*entrySize {
		t.Fatalf("after reopen with cap: %d entries, %d bytes (cap %d)", entries, size, 3*entrySize)
	}
	for _, k := range keys[:3] {
		if _, ok := d2.Get(k); ok {
			t.Errorf("old entry %s survived the reopen cap", k[:8])
		}
	}
	for _, k := range keys[3:] {
		if _, ok := d2.Get(k); !ok {
			t.Errorf("recent entry %s lost in the reopen cap", k[:8])
		}
	}
}
