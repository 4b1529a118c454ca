package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"amuletiso/internal/aft"
	"amuletiso/internal/apps"
	"amuletiso/internal/cc"
	"amuletiso/internal/kernel"
)

// BuildCache memoizes firmware builds by (app set, isolation mode), so a
// fleet of N devices running the same scenario compiles and links exactly
// once and every device boots from the shared immutable image.
//
// The build includes the firmware's predecoded instruction cache
// (aft.Firmware.Text): all N devices execute from the one shared decode of
// their common text, so per-device decode cost amortizes to zero — only
// devices whose code is overwritten at run time fall back to live decoding,
// and only for the overwritten words.
//
// Each entry also lazily holds a kernel.BootTemplate — the post-load memory
// snapshot devices clone at boot instead of re-running the erased-FRAM fill
// and firmware load (the "zero-cost boot" path). Builds and snapshots are
// engine-free, so every engine shares them; runs pick theirs with
// BootTemplate.WithEngine.
//
// The cache is safe for concurrent use; concurrent requests for the same key
// coalesce onto a single build.
type BuildCache struct {
	mu         sync.Mutex
	entries    map[buildKey]*cacheEntry
	builds     int
	hits       int
	tmplBuilds int
	tmplHits   int
}

type cacheEntry struct {
	once sync.Once
	fw   *aft.Firmware
	err  error

	tmplOnce sync.Once
	tmpl     *kernel.BootTemplate
}

// NewBuildCache returns an empty cache.
func NewBuildCache() *BuildCache {
	return &BuildCache{entries: make(map[buildKey]*cacheEntry)}
}

// buildKey is the SHA-256 digest of an app set and mode.
type buildKey [sha256.Size]byte

// keyScratch holds the buffers cacheKey serializes into before hashing.
var keyScratch = sync.Pool{New: func() any { return new([]byte) }}

// cacheKey fingerprints an app set and mode. Sources are hashed whole, so
// two registries whose apps share a name but differ in source do not
// collide; every string is length-prefixed, so no two lists serialize alike.
func cacheKey(list []apps.App, mode cc.Mode) buildKey {
	buf := keyScratch.Get().(*[]byte)
	b := binary.LittleEndian.AppendUint64((*buf)[:0], uint64(mode))
	str := func(s string) {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(s)))
		b = append(b, s...)
	}
	for _, a := range list {
		str(a.Name)
		str(a.Source)
		str(a.RestrictedSource)
		b = binary.LittleEndian.AppendUint64(b, uint64(a.StackBytes))
	}
	key := buildKey(sha256.Sum256(b))
	*buf = b
	keyScratch.Put(buf)
	return key
}

// entry returns (creating if needed) the cache slot for the key, counting a
// hit when the slot already existed.
func (c *BuildCache) entry(key buildKey) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
	} else {
		c.hits++
		mCacheHits.Inc()
	}
	return e
}

// build runs (or waits for) the entry's one firmware build.
func (c *BuildCache) build(e *cacheEntry, list []apps.App, mode cc.Mode) (*aft.Firmware, error) {
	e.once.Do(func() {
		srcs := make([]aft.AppSource, len(list))
		for i, a := range list {
			srcs[i] = a.AFT()
		}
		e.fw, e.err = aft.Build(srcs, mode)
		c.mu.Lock()
		c.builds++
		c.mu.Unlock()
	})
	return e.fw, e.err
}

// Get returns the firmware for the app set under the mode, building it on
// first use. Callers on other goroutines requesting the same key block until
// the one build completes and then share its result.
func (c *BuildCache) Get(list []apps.App, mode cc.Mode) (*aft.Firmware, error) {
	return c.build(c.entry(cacheKey(list, mode)), list, mode)
}

// Template returns the boot template for the app set under the mode,
// building the firmware and snapshotting its loaded image on first use. Its
// kernels boot on the production engine.
// Like Get, concurrent requests for the same key coalesce.
func (c *BuildCache) Template(list []apps.App, mode cc.Mode) (*kernel.BootTemplate, error) {
	e := c.entry(cacheKey(list, mode))
	fw, err := c.build(e, list, mode)
	if err != nil {
		return nil, err
	}
	built := false
	e.tmplOnce.Do(func() {
		e.tmpl = kernel.NewBootTemplate(fw)
		built = true
	})
	c.mu.Lock()
	if built {
		c.tmplBuilds++
		mTemplateBuilds.Inc()
	} else {
		c.tmplHits++
		mTemplateHits.Inc()
	}
	c.mu.Unlock()
	return e.tmpl, nil
}

// Stats reports how many builds ran and how many requests were served from
// the cache instead.
func (c *BuildCache) Stats() (builds, hits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.builds, c.hits
}

// TemplateStats reports how many boot templates were built and how many
// template requests were cache hits — the counter amuletfleet surfaces so
// operators can see the zero-cost-boot path working.
func (c *BuildCache) TemplateStats() (builds, hits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tmplBuilds, c.tmplHits
}
