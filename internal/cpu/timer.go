package cpu

// TimerA models the hardware timer the paper used to measure benchmark
// iterations: a free-running counter driven by the CPU clock through a
// divide-by-16 prescaler, giving the 16-cycle measurement precision quoted
// in the paper's Section 4.2.
//
// Register map (word registers, offsets from TimerBase):
//
//	+0x00 TACTL  control (prescaler select; only /16 and /1 are modeled)
//	+0x10 TAR    current count
const (
	// TimerBase is the base address of the timer register block.
	TimerBase uint16 = 0x0340
	// TimerTACTL is the control register address.
	TimerTACTL = TimerBase
	// TimerTAR is the counter register address.
	TimerTAR = TimerBase + 0x10

	// TimerPrescale is the default clock divider.
	TimerPrescale = 16
)

// TACTL bits.
const (
	TimerCtlDiv1 uint16 = 1 << 0 // run at CPU clock (no prescale)
)

// TimerA is the CPU seen through its Timer_A register block; it implements
// mem.Device. The registers live in the CPU (timerCtl, and timerBias: the
// cycle count at the last TAR reset, so TAR can be zeroed).
type TimerA CPU

// DeviceName implements mem.Device.
func (t *TimerA) DeviceName() string { return "timer_a" }

// ReadWord implements mem.Device.
func (t *TimerA) ReadWord(addr uint16) uint16 {
	c := (*CPU)(t)
	switch addr {
	case TimerTACTL:
		return c.timerCtl
	case TimerTAR:
		div := uint64(TimerPrescale)
		if c.timerCtl&TimerCtlDiv1 != 0 {
			div = 1
		}
		return uint16((c.Cycles - c.timerBias) / div)
	}
	return 0
}

// WriteWord implements mem.Device. Writing TAR resets the count (any value).
func (t *TimerA) WriteWord(addr uint16, v uint16) {
	c := (*CPU)(t)
	switch addr {
	case TimerTACTL:
		c.timerCtl = v
	case TimerTAR:
		c.timerBias = c.Cycles
	}
}
