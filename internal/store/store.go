// Package store is a persistent content-addressed result store: values
// are filed under hex digest keys (campaign.CellKey's sha256 of the
// canonical cell description), so identical experiment cells — across
// jobs, clients, processes and daemon restarts — are served from disk
// instead of re-executed. It extends the campaign engine's in-process
// single-flight memo across process lifetimes.
//
// The layout is two-level (root/ab/abcdef...), one file per entry,
// written atomically via a temp file and rename so a crash mid-Put can
// never leave a torn entry for Get to serve. Reads touch the entry's
// mtime, which is what the size-capped GC orders eviction by: least
// recently used first. Everything is plain files — a state directory is
// inspectable with ls and recoverable with rm.
package store

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Store is a directory-backed key-value store with LRU eviction. Safe for
// concurrent use by one process; the atomic-rename Put additionally makes
// readers of other processes safe (they see the old or the new entry,
// never a tear). Multi-process writers are out of scope — the daemon owns
// its state directory.
type Store struct {
	root string
	mu   sync.Mutex
	// size is a running total of entry bytes, established by the first
	// GC's scan and maintained by Put/Delete/GC from then on, so the
	// common GC call (under the cap) is O(1) instead of a directory walk.
	// GC's eviction scan re-derives it, self-healing any drift.
	size      int64
	sizeKnown bool
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{root: dir}, nil
}

// path maps a key to its entry file, rejecting anything that is not a
// plausible content digest so no key can escape the root or collide with
// the sharding scheme.
func (s *Store) path(key string) (string, error) {
	if len(key) < 8 || len(key) > 128 {
		return "", fmt.Errorf("store: key %q: length out of range", key)
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", fmt.Errorf("store: key %q is not lowercase hex", key)
		}
	}
	return filepath.Join(s.root, key[:2], key), nil
}

// Put stores data under key, atomically replacing any previous entry.
func (s *Store) Put(key string, data []byte) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), "."+key+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var replaced int64
	if s.sizeKnown {
		if fi, err := os.Stat(p); err == nil {
			replaced = fi.Size()
		}
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if s.sizeKnown {
		s.size += int64(len(data)) - replaced
	}
	return nil
}

// Get returns the entry stored under key. A hit refreshes the entry's
// recency (mtime), so a hot cell survives GC that evicts cold ones.
func (s *Store) Get(key string) ([]byte, bool) {
	p, err := s.path(key)
	if err != nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, false
	}
	now := time.Now()
	_ = os.Chtimes(p, now, now) // best-effort recency bump
	return data, true
}

// Has reports whether key is present, without refreshing its recency.
func (s *Store) Has(key string) bool {
	p, err := s.path(key)
	if err != nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err = os.Stat(p)
	return err == nil
}

// Delete removes key's entry (a no-op when absent).
func (s *Store) Delete(key string) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var old int64
	if s.sizeKnown {
		if fi, err := os.Stat(p); err == nil {
			old = fi.Size()
		}
	}
	if err := os.Remove(p); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("store: %w", err)
	}
	s.size -= old
	return nil
}

// entry is one on-disk record the GC considers.
type entry struct {
	path  string
	size  int64
	mtime time.Time
}

// scan walks the store, collecting entries and skipping temp files.
func (s *Store) scan() ([]entry, error) {
	var es []entry
	err := filepath.WalkDir(s.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if len(d.Name()) > 0 && d.Name()[0] == '.' {
			return nil // in-flight Put temp file
		}
		fi, err := d.Info()
		if err != nil {
			// The entry raced an eviction or concurrent replace; skip it.
			return nil
		}
		es = append(es, entry{path: p, size: fi.Size(), mtime: fi.ModTime()})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return es, nil
}

// Stats returns the entry count and total byte size of the store.
func (s *Store) Stats() (entries int, bytes int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	es, err := s.scan()
	if err != nil {
		return 0, 0, err
	}
	for _, e := range es {
		bytes += e.size
	}
	return len(es), bytes, nil
}

// GC evicts least-recently-used entries until the store's total size is
// at most maxBytes (maxBytes <= 0 disables eviction entirely). Recency is
// the entry mtime: written at Put, refreshed at Get. Ties break on path
// for determinism. Returns the number of entries evicted and the bytes
// reclaimed.
func (s *Store) GC(maxBytes int64) (evicted int, reclaimed int64, err error) {
	if maxBytes <= 0 {
		return 0, 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// O(1) fast path once the running total is established: a GC under
	// the cap — the overwhelmingly common call, e.g. after every cell
	// completion — costs no directory walk.
	if s.sizeKnown && s.size <= maxBytes {
		return 0, 0, nil
	}
	es, err := s.scan()
	if err != nil {
		return 0, 0, err
	}
	var total int64
	for _, e := range es {
		total += e.size
	}
	s.size, s.sizeKnown = total, true // authoritative resync
	if total <= maxBytes {
		return 0, 0, nil
	}
	sort.Slice(es, func(i, j int) bool {
		if !es[i].mtime.Equal(es[j].mtime) {
			return es[i].mtime.Before(es[j].mtime)
		}
		return es[i].path < es[j].path
	})
	for _, e := range es {
		if total <= maxBytes {
			break
		}
		if rmErr := os.Remove(e.path); rmErr != nil {
			if os.IsNotExist(rmErr) {
				continue
			}
			return evicted, reclaimed, fmt.Errorf("store: %w", rmErr)
		}
		total -= e.size
		s.size -= e.size
		reclaimed += e.size
		evicted++
	}
	return evicted, reclaimed, nil
}
