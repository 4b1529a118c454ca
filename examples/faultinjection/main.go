// Fault injection: the paper's security story, live. A buggy app forges a
// pointer at a neighbor's state and at the OS. Under each memory model this
// example shows who catches the bug — the compiler's lower-bound check, the
// MPU's segment fault, the bounds helper — or, with no isolation, nobody.
//
//	go run ./examples/faultinjection
package main

import (
	"fmt"
	"log"

	"amuletiso"
	"amuletiso/internal/abi"
)

// The buggy app dereferences whatever address arrives in arg.
// Event 3 = "write through a forged pointer".
const buggySource = `
void handle_event(int ev, int arg) {
    if (ev == 3) {
        int *p = 0;
        uint a = arg;
        p = p + (a >> 1);
        *p = 0x0BAD;
    }
}
`

// The Amulet C variant forges an array index instead (no pointers exist).
const buggyRestricted = `
int buf[2];
void handle_event(int ev, int arg) {
    if (ev == 3) {
        int i = arg;
        buf[i] = 0x0BAD;
    }
}
`

const victimSource = `
int secret = 0x5EC2;
void handle_event(int ev, int arg) {}
`

func main() {
	buggy := amuletiso.App{Name: "buggy", Source: buggySource, RestrictedSource: buggyRestricted}
	victim := amuletiso.App{Name: "victim", Source: victimSource}

	fmt.Println("attack: buggy app writes 0x0BAD into its neighbor's `secret`")
	fmt.Println()
	for _, mode := range amuletiso.Modes {
		sys, err := amuletiso.NewSystem([]amuletiso.App{buggy, victim}, mode)
		if err != nil {
			log.Fatal(err)
		}
		secretAddr := sys.Firmware.Image.MustSym(abi.SymGlobal("victim", "secret"))

		// Feature Limited has no pointers: aim the array index instead.
		arg := secretAddr
		if mode == amuletiso.FeatureLimited {
			bufAddr := sys.Firmware.Image.MustSym(abi.SymGlobal("buggy", "buf"))
			arg = (secretAddr - bufAddr) / 2
		}
		sys.Kernel.Post(0, 3, arg, 1)
		sys.RunFor(100)

		secret := sys.Kernel.Bus.Peek16(secretAddr)
		fmt.Printf("%-15s secret=0x%04X  ", mode, secret)
		switch {
		case secret != 0x5EC2:
			fmt.Println("CORRUPTED — no one stopped the write")
		case len(sys.Kernel.Faults) > 0:
			fmt.Printf("intact — %s\n", sys.Kernel.Faults[0].Reason)
		default:
			fmt.Println("intact")
		}
	}

	fmt.Println()
	fmt.Println("attack: buggy app writes into OS data (below its segment)")
	fmt.Println()
	for _, mode := range []amuletiso.Mode{amuletiso.MPU, amuletiso.SoftwareOnly} {
		sys, err := amuletiso.NewSystem([]amuletiso.App{buggy, victim}, mode)
		if err != nil {
			log.Fatal(err)
		}
		target := sys.Firmware.Vars.GateCount
		sys.Kernel.Post(0, 3, target, 1)
		sys.RunFor(100)
		fmt.Printf("%-15s ", mode)
		if len(sys.Kernel.Faults) > 0 {
			fmt.Printf("blocked by the compiler's lower-bound check (%s)\n", sys.Kernel.Faults[0].Reason)
		} else {
			fmt.Println("NOT blocked (unexpected)")
		}
	}
}
