package fleet

import (
	"testing"

	"amuletiso/internal/apps"
	"amuletiso/internal/cc"
	"amuletiso/internal/isa"
)

// TestBuildCacheEngineFlagEviction pins the eviction-safety fix: the cache
// key includes the engine configuration, so flipping an escape hatch between
// runs in one process rebuilds instead of silently serving a firmware (and
// boot template) baked under different flags.
func TestBuildCacheEngineFlagEviction(t *testing.T) {
	defer func() {
		isa.SetJIT(true)
		isa.SetThreading(true)
	}()
	cache := NewBuildCache()
	pedometer, _ := apps.ByName("pedometer")
	list := []apps.App{pedometer}

	fwOn, err := cache.Get(list, cc.ModeMPU)
	if err != nil {
		t.Fatal(err)
	}
	isa.SetJIT(false)
	fwNoJIT, err := cache.Get(list, cc.ModeMPU)
	if err != nil {
		t.Fatal(err)
	}
	if fwOn == fwNoJIT {
		t.Fatal("JIT flip served the same firmware instance")
	}
	if fwOn.Text.Blocks() == 0 || fwNoJIT.Text.Blocks() != 0 {
		t.Fatalf("JIT state wrong: on=%d blocks, off=%d blocks",
			fwOn.Text.Blocks(), fwNoJIT.Text.Blocks())
	}
	isa.SetJIT(true)
	isa.SetThreading(false)
	fwNoThread, err := cache.Get(list, cc.ModeMPU)
	if err != nil {
		t.Fatal(err)
	}
	if fwNoThread == fwOn || fwNoThread == fwNoJIT {
		t.Fatal("threading flip served a stale firmware instance")
	}
	isa.SetThreading(true)
	fwAgain, err := cache.Get(list, cc.ModeMPU)
	if err != nil {
		t.Fatal(err)
	}
	if fwAgain != fwOn {
		t.Fatal("restoring flags did not hit the original cache entry")
	}
	if builds, _ := cache.Stats(); builds != 3 {
		t.Fatalf("builds = %d, want 3 (one per distinct engine configuration)", builds)
	}
}

// TestTemplateStats checks the boot-template counters Runner surfaces:
// first request builds, repeats hit, and the template tracks its entry's
// engine configuration.
func TestTemplateStats(t *testing.T) {
	cache := NewBuildCache()
	pedometer, _ := apps.ByName("pedometer")
	list := []apps.App{pedometer}

	t1, err := cache.Template(list, cc.ModeMPU)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := cache.Template(list, cc.ModeMPU)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Fatal("template rebuilt for an unchanged configuration")
	}
	if builds, hits := cache.TemplateStats(); builds != 1 || hits != 1 {
		t.Fatalf("template stats = %d builds, %d hits; want 1, 1", builds, hits)
	}
	fw, err := cache.Get(list, cc.ModeMPU)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Firmware() != fw {
		t.Fatal("template firmware differs from the cached build")
	}
}
