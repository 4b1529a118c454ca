// Package core assembles the paper's contribution into a usable system and
// regenerates its evaluation: the hybrid MPU+compiler isolation pipeline
// (compile → analyze → instrument → place → run under the kernel), plus the
// measurement harnesses for Table 1, Figure 2 and Figure 3.
//
// The heavy lifting lives in the substrate packages (internal/cc emits the
// checks, internal/aft plans memory and gates, internal/mpu enforces
// segments, internal/kernel schedules); core is the composition root a
// downstream user programs against.
package core

import (
	"fmt"

	"amuletiso/internal/aft"
	"amuletiso/internal/apps"
	"amuletiso/internal/cc"
	"amuletiso/internal/kernel"
)

// Mode re-exports the isolation models for the public API.
type Mode = cc.Mode

// The four memory models of the paper.
const (
	NoIsolation    = cc.ModeNoIsolation
	FeatureLimited = cc.ModeFeatureLimited
	SoftwareOnly   = cc.ModeSoftwareOnly
	MPU            = cc.ModeMPU
)

// Modes lists the models in the paper's column order.
var Modes = cc.Modes

// System is a built firmware plus a booted kernel: the deliverable a user
// of the library instantiates to run isolated applications.
type System struct {
	Mode     Mode
	Firmware *aft.Firmware
	Kernel   *kernel.Kernel
}

// NewSystem compiles the given applications under the mode and boots a
// kernel around the resulting firmware.
func NewSystem(list []apps.App, mode Mode) (*System, error) {
	srcs := make([]aft.AppSource, len(list))
	for i, a := range list {
		srcs[i] = a.AFT()
	}
	fw, err := aft.Build(srcs, mode)
	if err != nil {
		return nil, err
	}
	return &System{Mode: mode, Firmware: fw, Kernel: kernel.New(fw)}, nil
}

// RunFor advances the system by the given amount of virtual wear time.
func (s *System) RunFor(ms uint64) int {
	return s.Kernel.RunUntil(s.Kernel.NowMS + ms)
}

// App returns the kernel state of the i-th application.
func (s *System) App(i int) *kernel.AppState { return &s.Kernel.Apps[i] }

// measureEvent dispatches one event to app 0 and returns the active cycles
// it consumed (including gates and services, excluding queue idle time).
func measureEvent(k *kernel.Kernel, ev, arg uint16) (uint64, error) {
	k.Post(0, ev, arg, 0)
	before := k.CPU.Cycles
	if !k.Step() {
		return 0, fmt.Errorf("core: event not delivered")
	}
	if n := len(k.Faults); n > 0 {
		return 0, fmt.Errorf("core: fault during measurement: %s", k.Faults[n-1].Reason)
	}
	return k.CPU.Cycles - before, nil
}

// benchKernel builds a single-app kernel for a benchmark app under a mode
// and consumes its init event.
func benchKernel(app apps.App, mode Mode) (*kernel.Kernel, error) {
	fw, err := aft.Build([]aft.AppSource{app.AFT()}, mode)
	if err != nil {
		return nil, err
	}
	k := kernel.New(fw)
	k.RunUntil(1) // deliver EvInit
	return k, nil
}
