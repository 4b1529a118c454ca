package kernel

import (
	"amuletiso/internal/abi"
	"amuletiso/internal/isa"
	"amuletiso/internal/obs"
)

// Service cycle costs: the modeled execution cost of each OS service body
// (the code the real AmuletOS would run inside the call). Charged on the
// simulated cycle counter in every mode, so isolation comparisons see the
// same service work and differ only in gate/check cost. Indexed by syscall
// number; unknown numbers cost nothing (see svcCycles).
var svcCost = [...]uint64{
	abi.SysGetTime:      30,
	abi.SysReadAccel:    60,
	abi.SysReadHR:       80,
	abi.SysReadTemp:     60,
	abi.SysReadLight:    60,
	abi.SysReadBattery:  40,
	abi.SysDisplayClear: 300,
	abi.SysDisplayText:  200, // + 4 per byte
	abi.SysDisplayDraw:  120,
	abi.SysLogWrite:     100, // + 2 per byte
	abi.SysLogValue:     80,
	abi.SysSetTimer:     50,
	abi.SysRand:         20,
	abi.SysSubscribe:    60,
	abi.SysGetSteps:     40,
	abi.SysYield:        0,
	abi.SysPing:         0,
}

// svcCycles returns the modeled cost of service id.
func svcCycles(id uint16) uint64 {
	if int(id) < len(svcCost) {
		return svcCost[id]
	}
	return 0
}

// MaxLogArg caps one amulet_log_write transfer.
const MaxLogArg = 64

// service implements the syscall port: the gate has already switched to the
// OS stack (and, in MPU mode, the OS plan); arguments are still in R12-R15.
func (k *Kernel) service(id uint16) {
	app := &k.Apps[k.curApp]
	app.Syscalls++
	mSyscalls.Inc()
	cost := svcCycles(id)
	k.CPU.Cycles += cost
	k.OSCycles += cost
	if k.rec != nil {
		k.rec.Record(k.CPU.Cycles, obs.KindSyscall, int16(k.curApp), id, 0)
		defer func() {
			k.rec.Record(k.CPU.Cycles, obs.KindSyscallRet, int16(k.curApp), id, k.CPU.Regs[isa.R12])
		}()
	}

	arg := func(i int) uint16 { return k.CPU.Regs[isa.R12+isa.Reg(i)] }
	ret := func(v uint16) { k.CPU.Regs[isa.R12] = v }

	switch id {
	case abi.SysGetTime:
		ret(uint16(k.timeMS()))

	case abi.SysReadAccel:
		ret(uint16(k.Sensors.Accel(int(arg(0)), k.timeMS())))

	case abi.SysReadHR:
		ret(uint16(k.Sensors.HR(k.timeMS())))

	case abi.SysReadTemp:
		ret(uint16(k.Sensors.Temp(k.timeMS())))

	case abi.SysReadLight:
		ret(uint16(k.Sensors.Light(k.timeMS())))

	case abi.SysReadBattery:
		ret(uint16(k.Sensors.Battery(k.timeMS())))

	case abi.SysDisplayClear:
		k.Display.Clear()
		ret(0)

	case abi.SysDisplayText:
		ptr, n, row := arg(0), arg(1), arg(2)
		if n > MaxLogArg {
			n = MaxLogArg
		}
		text := make([]byte, n)
		for i := uint16(0); i < n; i++ {
			text[i] = k.Bus.Peek8(ptr + i)
		}
		k.Display.Text(int(row), string(text))
		k.CPU.Cycles += 4 * uint64(n)
		ret(0)

	case abi.SysDisplayDraw:
		k.Display.Draw(int(arg(0)), int(arg(1)), arg(2))
		ret(0)

	case abi.SysLogWrite:
		ptr, n := arg(0), arg(1)
		if n > MaxLogArg {
			n = MaxLogArg
		}
		for i := uint16(0); i < n; i++ {
			app.Log = append(app.Log, k.Bus.Peek8(ptr+i))
		}
		k.CPU.Cycles += 2 * uint64(n)
		ret(n)

	case abi.SysLogValue:
		app.LogValues = append(app.LogValues, TaggedValue{
			Tag: arg(0), Value: arg(1), AtMS: k.timeMS(),
		})
		ret(0)

	case abi.SysSetTimer:
		k.timerSeq++
		k.post(Event{
			Due: k.timeMS() + uint64(arg(0)),
			App: k.curApp, Code: abi.EvTimer, Arg: k.timerSeq,
		})
		ret(k.timerSeq)

	case abi.SysRand:
		ret(k.randWord())

	case abi.SysSubscribe:
		sensor, period := arg(0), uint64(arg(1))
		if period == 0 {
			period = 1000
		}
		if _, dup := app.Subs[sensor]; !dup {
			if app.Subs == nil {
				app.Subs = make(map[uint16]uint64)
			}
			app.Subs[sensor] = period
			if sensor != abi.SensorButton {
				k.post(Event{
					Due: k.timeMS() + period,
					App: k.curApp, Code: abi.EvSensor, Arg: sensor, Period: period,
				})
			}
		}
		ret(0)

	case abi.SysGetSteps:
		ret(uint16(k.Sensors.Steps(k.timeMS())))

	case abi.SysYield:
		ret(0)

	case abi.SysPing:
		ret(0)

	default:
		k.recordFault(k.curApp, "unknown syscall", FaultOther)
		k.CPU.Halted = true
	}
}
