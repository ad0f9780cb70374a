package store_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"radcrit/internal/store"
)

// backendCases builds one fresh instance of every Backend implementation:
// the disk store and the in-memory store. Each subtest in the conformance
// suite runs against both.
func backendCases(t *testing.T) map[string]store.Backend {
	t.Helper()
	disk, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]store.Backend{
		"disk": disk,
		"mem":  store.NewMem(),
	}
}

func key(i int) string { return fmt.Sprintf("%064x", i) }

func TestBackendConformanceBasics(t *testing.T) {
	for name, b := range backendCases(t) {
		t.Run(name, func(t *testing.T) {
			if _, ok := b.Get(key(1)); ok {
				t.Error("Get on empty store succeeded")
			}
			if b.Has(key(1)) {
				t.Error("Has on empty store reported true")
			}
			if err := b.Put(key(1), []byte("v1")); err != nil {
				t.Fatal(err)
			}
			if got, ok := b.Get(key(1)); !ok || !bytes.Equal(got, []byte("v1")) {
				t.Fatalf("Get = %q ok=%v", got, ok)
			}
			// Overwrite replaces.
			if err := b.Put(key(1), []byte("v2")); err != nil {
				t.Fatal(err)
			}
			if got, _ := b.Get(key(1)); !bytes.Equal(got, []byte("v2")) {
				t.Fatalf("after overwrite Get = %q", got)
			}
			if err := b.Put(key(2), []byte("other")); err != nil {
				t.Fatal(err)
			}
			entries, size, err := b.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if entries != 2 || size != int64(len("v2")+len("other")) {
				t.Fatalf("Stats = %d entries, %d bytes", entries, size)
			}
			if err := b.Delete(key(1)); err != nil {
				t.Fatal(err)
			}
			if b.Has(key(1)) {
				t.Error("deleted key still present")
			}
			if err := b.Delete(key(1)); err != nil {
				t.Errorf("double delete errored: %v", err)
			}
			// Key validation: not hex, too short, path escapes.
			for _, bad := range []string{"UPPERCASE00", "short", "../../../../etc/passwd", "zzzzzzzzzz"} {
				if err := b.Put(bad, []byte("x")); err == nil {
					t.Errorf("Put(%q) accepted", bad)
				}
				if _, ok := b.Get(bad); ok {
					t.Errorf("Get(%q) succeeded", bad)
				}
			}
		})
	}
}

func TestBackendConformanceLRU(t *testing.T) {
	for name, b := range backendCases(t) {
		t.Run(name, func(t *testing.T) {
			val := bytes.Repeat([]byte("x"), 100)
			// Distinct recency: the disk backend's clock is mtime, so space
			// writes out by a few ms.
			for i := 1; i <= 3; i++ {
				if err := b.Put(key(i), val); err != nil {
					t.Fatal(err)
				}
				time.Sleep(5 * time.Millisecond)
			}
			// Refresh entry 1: Get bumps recency, leaving 2 the coldest.
			if _, ok := b.Get(key(1)); !ok {
				t.Fatal("refresh Get missed")
			}
			time.Sleep(5 * time.Millisecond)
			evicted, reclaimed, err := b.GC(250) // room for two entries
			if err != nil {
				t.Fatal(err)
			}
			if evicted != 1 || reclaimed != 100 {
				t.Fatalf("GC evicted %d / %d bytes, want 1 / 100", evicted, reclaimed)
			}
			if b.Has(key(2)) {
				t.Error("coldest entry (2) survived GC")
			}
			if !b.Has(key(1)) || !b.Has(key(3)) {
				t.Error("refreshed (1) or newest (3) entry was evicted")
			}
			// Under-cap GC is a no-op; GC(0) disables eviction.
			if ev, _, _ := b.GC(1 << 20); ev != 0 {
				t.Errorf("under-cap GC evicted %d", ev)
			}
			if ev, _, _ := b.GC(0); ev != 0 {
				t.Errorf("GC(0) evicted %d", ev)
			}
		})
	}
}

// TestBackendConformanceConcurrent hammers each backend from many
// goroutines under -race: concurrent writers on one key must never let a
// reader observe a torn value; concurrent Put/Get/Delete/GC on many keys
// must stay consistent.
func TestBackendConformanceConcurrent(t *testing.T) {
	vA := bytes.Repeat([]byte("aa"), 64)
	vB := bytes.Repeat([]byte("bb"), 64)
	for name, b := range backendCases(t) {
		t.Run(name, func(t *testing.T) {
			if err := b.Put(key(0), vA); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					val := vA
					if w == 1 {
						val = vB
					}
					for i := 0; i < 50; i++ {
						if err := b.Put(key(0), val); err != nil {
							t.Errorf("Put: %v", err)
							return
						}
					}
				}(w)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					got, ok := b.Get(key(0))
					if !ok {
						continue // concurrent GC may evict it; only tears are bugs
					}
					if !bytes.Equal(got, vA) && !bytes.Equal(got, vB) {
						t.Errorf("torn read: %d bytes %q...", len(got), got[:min(8, len(got))])
						return
					}
				}
			}()
			// Churn on disjoint keys plus concurrent GC.
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 40; i++ {
						k := key(100 + w*100 + i)
						if err := b.Put(k, vA); err != nil {
							t.Errorf("Put: %v", err)
							return
						}
						b.Get(k)
						if i%4 == 0 {
							if _, _, err := b.GC(4096); err != nil {
								t.Errorf("GC: %v", err)
								return
							}
						}
					}
				}(w)
			}
			time.Sleep(20 * time.Millisecond)
			close(stop)
			wg.Wait()
		})
	}
}

func TestTenantPrefix(t *testing.T) {
	if p := store.TenantPrefix(""); p != "" {
		t.Errorf("empty tenant prefix = %q", p)
	}
	if p := store.TenantPrefix("default"); p != "" {
		t.Errorf("default tenant prefix = %q, want unprefixed for compat", p)
	}
	pa, pb := store.TenantPrefix("alpha"), store.TenantPrefix("beta")
	if pa == pb {
		t.Error("distinct tenants share a prefix")
	}
	if len(pa) != 16 {
		t.Errorf("prefix length = %d, want 16", len(pa))
	}
	if pa != store.TenantPrefix("alpha") {
		t.Error("prefix is not deterministic")
	}
	// A prefixed 64-hex cell key must still satisfy every backend's key
	// validation.
	if err := store.ValidKey(pa + key(7)); err != nil {
		t.Errorf("prefixed key rejected: %v", err)
	}
}
