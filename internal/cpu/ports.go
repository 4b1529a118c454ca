package cpu

// Debug and OS-interface ports, memory-mapped in otherwise unused peripheral
// space. The OS gate code generated by the AFT uses PortSyscall to transfer
// control to kernel services; firmware written for tests uses PortHalt and
// PortConsole.
const (
	PortHalt    uint16 = 0x01E0 // write: stop the CPU; value = exit code
	PortConsole uint16 = 0x01E2 // write: append low byte to the console
	PortSyscall uint16 = 0x01E4 // write: invoke the OS syscall hook with id
	PortCycleLo uint16 = 0x01E6 // read: low 16 bits of the cycle counter
	PortCycleHi uint16 = 0x01E8 // read: high 16 bits of the cycle counter

	portBase  = PortHalt
	portLimit = PortCycleHi + 1
)

// portDevice is the CPU seen through its debug/OS ports.
type portDevice CPU

func (p *portDevice) DeviceName() string { return "ports" }

func (p *portDevice) ReadWord(addr uint16) uint16 {
	c := (*CPU)(p)
	switch addr {
	case PortCycleLo:
		return uint16(c.Cycles)
	case PortCycleHi:
		return uint16(c.Cycles >> 16)
	case PortHalt:
		return c.ExitCode
	}
	return 0
}

func (p *portDevice) WriteWord(addr uint16, v uint16) {
	c := (*CPU)(p)
	switch addr {
	case PortHalt:
		c.Halted = true
		c.ExitCode = v
	case PortConsole:
		c.Console = append(c.Console, byte(v))
	case PortSyscall:
		if c.OnSyscall != nil {
			c.OnSyscall.Syscall(v)
		}
	}
}
