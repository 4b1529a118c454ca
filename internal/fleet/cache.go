package fleet

import (
	"fmt"
	"strings"
	"sync"

	"amuletiso/internal/aft"
	"amuletiso/internal/apps"
	"amuletiso/internal/cc"
	"amuletiso/internal/cpu"
	"amuletiso/internal/isa"
	"amuletiso/internal/kernel"
	"amuletiso/internal/mem"
)

// BuildCache memoizes firmware builds by (app set, isolation mode, engine
// configuration), so a fleet of N devices running the same scenario compiles
// and links exactly once and every device boots from the shared immutable
// image.
//
// The build includes the firmware's predecoded instruction cache
// (aft.Firmware.Text): all N devices execute from the one shared decode of
// their common text, so per-device decode cost amortizes to zero — only
// devices whose code is overwritten at run time fall back to live decoding,
// and only for the overwritten words.
//
// Each entry also lazily holds a kernel.BootTemplate — the post-load memory
// snapshot devices clone at boot instead of re-running the erased-FRAM fill
// and firmware load (the "zero-cost boot" path). Keying on the engine
// configuration (decode cache, threading, certificates, JIT) makes both
// memoizations eviction-safe: flipping an escape hatch between runs in one
// process gets a correctly built firmware and a matching template instead of
// silently reusing artifacts built under different engine flags.
//
// The cache is safe for concurrent use; concurrent requests for the same key
// coalesce onto a single build.
type BuildCache struct {
	mu         sync.Mutex
	entries    map[string]*cacheEntry
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
	return &BuildCache{entries: make(map[string]*cacheEntry)}
}

// cacheKey fingerprints an app set, mode and the engine flags the build
// bakes in. Sources are included whole: two registries whose apps share a
// name but differ in source must not collide. The engine flags matter
// because Predecode consults them at build time — a firmware built with,
// say, the JIT off must not be served to a run expecting it on.
func cacheKey(list []apps.App, mode cc.Mode) string {
	var b strings.Builder
	fmt.Fprintf(&b, "mode=%d|dc=%t|thread=%t|cert=%t|jit=%t",
		int(mode), cpu.DecodeCacheEnabled(), isa.ThreadingEnabled(),
		mem.ExecCertsEnabled(), isa.JITEnabled())
	for _, a := range list {
		fmt.Fprintf(&b, "|%q;%q;%q;%d", a.Name, a.Source, a.RestrictedSource, a.StackBytes)
	}
	return b.String()
}

// entry returns (creating if needed) the cache slot for the key, counting a
// hit when the slot already existed.
func (c *BuildCache) entry(key string) *cacheEntry {
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
// building the firmware and snapshotting its loaded image on first use.
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
