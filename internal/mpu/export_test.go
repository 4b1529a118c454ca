package mpu

// PlanStoreLookups exposes the shared-store lookup count to the external
// tests, which drive a whole kernel through the unit.
func PlanStoreLookups() uint64 { return storeLookups.Load() }
