package mpu

import "testing"

// gateApps is a nine-app layout in the shape aft.Build produces: OS data at
// 0x4800, apps packed from 0x5000, each with a 1 KiB-aligned data segment.
var gateApps = func() (apps [9][2]uint16) {
	for i := range apps {
		apps[i] = [2]uint16{0x5400 + uint16(i)*0x0C00, 0x5C00 + uint16(i)*0x0C00}
	}
	return apps
}()

const (
	gateOSB1, gateOSB2 = 0x4800, 0x5000
	gateOSSAM          = 0x0664 // seg1 X, seg2 RW, seg3 RW
	gateAppSAM         = 0x0064 // seg1 X, seg2 RW, seg3 none
)

// gateCrossing writes the register sequence of one API call from app i
// through the MPU-mode gate: into the OS plan, confirm, and back to the
// app's plan.
func gateCrossing(u *Unit, i int) {
	u.WriteWord(RegSEGB1, gateOSB1)
	u.WriteWord(RegSEGB2, gateOSB2)
	u.WriteWord(RegSAM, gateOSSAM)
	u.WriteWord(RegCTL0, Password|CtlEnable)
	u.WriteWord(RegSEGB1, gateApps[i][0])
	u.WriteWord(RegSEGB2, gateApps[i][1])
	u.WriteWord(RegSAM, gateAppSAM)
	u.WriteWord(RegCTL0, Password|CtlEnable)
}

// BenchmarkGateCrossing measures the register writes of one gate crossing,
// rotating through nine apps' plans: each write resolves its successor
// record.
func BenchmarkGateCrossing(b *testing.B) {
	u := New()
	u.Configure(gateApps[0][0], gateApps[0][1], gateAppSAM, true)
	for i := 0; i < b.N; i++ {
		gateCrossing(u, i%len(gateApps))
	}
}
