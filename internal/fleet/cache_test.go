package fleet

import (
	"context"
	"testing"

	"amuletiso/internal/apps"
	"amuletiso/internal/cc"
	"amuletiso/internal/engine"
)

// TestBuildCacheSharedAcrossEngines: builds and boot snapshots are
// engine-free, so runs on two engines share one firmware and one template,
// and each boots its own machine from them — only the production engine
// attaches the predecoded program and its superblocks.
func TestBuildCacheSharedAcrossEngines(t *testing.T) {
	cache := NewBuildCache()
	sc := testScenario(2)
	oracle := engine.Engine{NoDecodeCache: true}
	for _, e := range []engine.Engine{{}, oracle} {
		sc.Engine = e
		if _, err := (&Runner{Workers: 1, Cache: cache}).Run(context.Background(), sc); err != nil {
			t.Fatalf("%v: %v", e, err)
		}
	}
	if builds, _ := cache.Stats(); builds != 1 {
		t.Fatalf("builds = %d, want 1 shared by both engines", builds)
	}
	if builds, _ := cache.TemplateStats(); builds != 1 {
		t.Fatalf("templates = %d, want 1 shared by both engines", builds)
	}
	tmpl, err := cache.Template(sc.Apps, sc.Mode)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := cache.Get(sc.Apps, sc.Mode)
	if err != nil {
		t.Fatal(err)
	}
	if tmpl.WithEngine(oracle).Firmware() != fw {
		t.Fatal("engine template does not share the cached firmware")
	}
	if p := tmpl.NewKernel(1).CPU.Program(); p != fw.Text || p.Blocks() == 0 {
		t.Fatal("production boot did not attach the shared program and its superblocks")
	}
	if tmpl.WithEngine(oracle).NewKernel(1).CPU.Program() != nil {
		t.Fatal("NoDecodeCache boot attached a predecoded program")
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

// TestCacheKeySeparatesSources: two app lists with the same names but
// different sources get different keys, and so separate builds; shifting a
// byte across a field boundary changes the key too.
func TestCacheKeySeparatesSources(t *testing.T) {
	pedometer, _ := apps.ByName("pedometer")
	variant := pedometer
	variant.Source += "\n// variant\n"
	orig, changed := []apps.App{pedometer}, []apps.App{variant}
	if cacheKey(orig, cc.ModeMPU) == cacheKey(changed, cc.ModeMPU) {
		t.Fatal("same names, different sources: keys collide")
	}
	if cacheKey(orig, cc.ModeMPU) != cacheKey([]apps.App{pedometer}, cc.ModeMPU) {
		t.Fatal("equal lists hash to different keys")
	}
	if cacheKey(orig, cc.ModeMPU) == cacheKey(orig, cc.ModeNoIsolation) {
		t.Fatal("modes collide")
	}
	ab := apps.App{Name: "ab", Source: "c"}
	a := apps.App{Name: "a", Source: "bc"}
	if cacheKey([]apps.App{ab}, cc.ModeMPU) == cacheKey([]apps.App{a}, cc.ModeMPU) {
		t.Fatal("a byte moved between name and source: keys collide")
	}

	cache := NewBuildCache()
	fw1, err := cache.Get(orig, cc.ModeMPU)
	if err != nil {
		t.Fatal(err)
	}
	fw2, err := cache.Get(changed, cc.ModeMPU)
	if err != nil {
		t.Fatal(err)
	}
	if fw1 == fw2 {
		t.Fatal("lists with different sources share one build")
	}
	if builds, hits := cache.Stats(); builds != 2 || hits != 0 {
		t.Fatalf("stats = %d builds, %d hits; want 2, 0", builds, hits)
	}
}
