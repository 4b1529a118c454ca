package engine

import (
	"flag"
	"io"
	"testing"
)

// TestFlags checks the wiring the CLI byte-compare legs cannot see: parsing
// no flags gives the production engine, and each hatch flag sets exactly
// its own field.
func TestFlags(t *testing.T) {
	parse := func(args ...string) Engine {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		e := Flags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return *e
	}
	if e := parse(); e != (Engine{}) {
		t.Fatalf("no flags: %+v, want the zero Engine", e)
	}
	for flagName, want := range map[string]Engine{
		"nodecodecache": {NoDecodeCache: true},
		"nothread":      {NoThread: true},
		"nojit":         {NoJIT: true},
		"nocert":        {NoCert: true},
		"nocow":         {NoCOW: true},
	} {
		if got := parse("-" + flagName); got != want {
			t.Errorf("-%s: %+v, want %+v", flagName, got, want)
		}
		if got := want.String(); got != flagName {
			t.Errorf("%+v.String() = %q, want %q", want, got, flagName)
		}
	}
}
