// Package engine names the host-speed execution layers a simulated machine
// runs on. Every layer exists only to produce the same cycle-domain bytes
// faster, and each has an oracle it is tested against; an Engine picks,
// layer by layer, which of the two a machine uses, each field an escape
// hatch to one layer's oracle. The choice is made where a machine is
// assembled (a kernel boot, a standalone program load), never where
// firmware is built, so one build serves every engine.
package engine

import (
	"flag"
	"strings"
)

// Engine selects the execution layers of a machine. The zero value is the
// production engine; each field swaps one layer for its oracle.
type Engine struct {
	// NoDecodeCache attaches no predecoded program: every instruction goes
	// through the live decoder (and so the switch executor, without JIT).
	NoDecodeCache bool
	// NoThread attaches the program's handler-free twin, so cached
	// instructions run through the switch executor.
	NoThread bool
	// NoJIT attaches no superblock plan: the interpreter retires every
	// instruction.
	NoJIT bool
	// NoCert installs the MPU without its certifier interfaces, so every
	// fetch and data access is checked word by word.
	NoCert bool
	// NoCOW boots device memory as flat 64 KiB clones instead of
	// copy-on-write views of the boot snapshot.
	NoCOW bool
}

// Matrix is the production engine, each hatch alone, and every oracle at
// once: the cells equivalence tests compare byte for byte.
var Matrix = []Engine{
	{},
	{NoDecodeCache: true},
	{NoThread: true},
	{NoJIT: true},
	{NoCert: true},
	{NoCOW: true},
	{NoDecodeCache: true, NoThread: true, NoJIT: true, NoCert: true, NoCOW: true},
}

type hatch struct {
	name, usage string
	on          *bool
}

// hatches lists e's fields under their flag names, in flag order.
func (e *Engine) hatches() []hatch {
	return []hatch{
		{"nodecodecache", "disable the predecoded instruction cache (live-decode oracle)", &e.NoDecodeCache},
		{"nocert", "disable execute and data-access certificates (per-word checks)", &e.NoCert},
		{"nothread", "disable threaded dispatch (switch-executor oracle)", &e.NoThread},
		{"nojit", "disable the superblock JIT (interpreter oracle)", &e.NoJIT},
		{"nocow", "disable copy-on-write device memory (flat 64 KiB clone oracle)", &e.NoCOW},
	}
}

// Flags registers one boolean flag per hatch on fs and returns the Engine
// they set once fs is parsed. Output is byte-identical under every hatch.
func Flags(fs *flag.FlagSet) *Engine {
	e := new(Engine)
	for _, h := range e.hatches() {
		fs.BoolVar(h.on, h.name, false, h.usage+"; output is byte-identical either way")
	}
	return e
}

// String names e by its hatches joined with '-' ("nocert-nocow"), or
// "default" for the production engine.
func (e Engine) String() string {
	var names []string
	for _, h := range e.hatches() {
		if *h.on {
			names = append(names, h.name)
		}
	}
	if len(names) == 0 {
		return "default"
	}
	return strings.Join(names, "-")
}
