package fleet

import (
	"fmt"
	"math"
	"sort"

	"amuletiso/internal/arp"
	"amuletiso/internal/energy"
	"amuletiso/internal/obs"
)

// DeviceResult is the outcome of simulating one device: the accounting the
// kernel accumulated over the scenario's wear window, plus the per-device
// battery projection. Results are pure functions of (firmware, device seed,
// scenario), so they are identical across runs and worker counts.
type DeviceResult struct {
	Device int    `json:"device"`
	Seed   uint32 `json:"seed"`

	Events     int    `json:"events"` // delivered by the scheduler
	Dispatches uint64 `json:"dispatches"`
	Syscalls   uint64 `json:"syscalls"`
	Cycles     uint64 `json:"cycles"`   // active cycles across all apps
	Insns      uint64 `json:"insns"`    // retired simulated instructions
	OSCycles   uint64 `json:"osCycles"` // modeled scheduler/service share
	Faults     int    `json:"faults"`
	AppsAlive  int    `json:"appsAlive"`

	FaultReasons []string `json:"faultReasons,omitempty"`
	// FaultClasses mirrors FaultReasons with the kernel's per-layer
	// attribution (check/gate/mpu/watchdog/injected/...).
	FaultClasses []string `json:"faultClasses,omitempty"`

	// Latency is the device's post→dispatch latency histogram in simulated
	// cycles — deterministic simulation output like every other field, never
	// wall-clock.
	Latency obs.CycleHist `json:"latency"`

	// FaultTrace is the flight recorder's last-events window around this
	// device's faults, present only when the scenario requested it
	// (Scenario.FaultTrace) and the device faulted. It never appears
	// otherwise, so reports stay byte-identical across tracing settings.
	FaultTrace []obs.DumpEvent `json:"faultTrace,omitempty"`

	// WeeklyBatteryPct projects this device's active-cycle load, extrapolated
	// to a week of wear, onto the battery model's weekly energy budget.
	WeeklyBatteryPct float64 `json:"weeklyBatteryPct"`
	// ProjectedLifetimeHours is the battery model's expected lifetime under
	// this device's load: the 14-day baseline minus
	// energy.LifetimeReductionHours of the load extrapolated to a week.
	ProjectedLifetimeHours float64 `json:"projectedLifetimeHours"`

	// Brownouts counts power-loss faults the intermittent-power model dealt
	// this device; FirstBrownoutMS is when the first one hit. Both zero on a
	// stable bench supply.
	Brownouts       int    `json:"brownouts,omitempty"`
	FirstBrownoutMS uint64 `json:"firstBrownoutMS,omitempty"`
}

// Summary holds order statistics over one per-device metric.
type Summary struct {
	Min  float64 `json:"min"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// summarize computes nearest-rank percentiles over the values.
func summarize(vals []float64) Summary {
	if len(vals) == 0 {
		return Summary{}
	}
	s := make([]float64, len(vals))
	copy(s, vals)
	sort.Float64s(s)
	rank := func(p float64) float64 {
		// Nearest-rank wants the ceiling, matching obs.CycleHist.Quantile:
		// p90 over 7 devices is rank ceil(6.3) = 7 → s[6], not the s[5] the
		// old round-half-up conversion produced.
		i := int(math.Ceil(p/100*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return Summary{
		Min:  s[0],
		P50:  rank(50),
		P90:  rank(90),
		P99:  rank(99),
		Max:  s[len(s)-1],
		Mean: sum / float64(len(s)),
	}
}

// Report aggregates a fleet run. Reports are mergeable: shards of the same
// scenario simulated on different machines (or in different calls) combine
// with Merge, and every aggregate is recomputed from the per-device results,
// so a merged report equals the report of the union run.
type Report struct {
	Scenario   string `json:"scenario"`
	Mode       string `json:"mode"`
	Devices    int    `json:"devices"`
	Seed       uint64 `json:"seed"`
	DurationMS uint64 `json:"durationMS"`

	TotalEvents     int    `json:"totalEvents"`
	TotalDispatches uint64 `json:"totalDispatches"`
	TotalSyscalls   uint64 `json:"totalSyscalls"`
	TotalCycles     uint64 `json:"totalCycles"`
	TotalInsns      uint64 `json:"totalInsns"`
	TotalFaults     int    `json:"totalFaults"`
	DevicesFaulted  int    `json:"devicesFaulted"`

	// TotalBrownouts / DevicesBrownedOut aggregate the intermittent-power
	// model's power-loss faults; both stay zero (and omitted) on a stable
	// supply, keeping those reports byte-identical to power-less ones.
	TotalBrownouts    int `json:"totalBrownouts,omitempty"`
	DevicesBrownedOut int `json:"devicesBrownedOut,omitempty"`

	// FaultReasons histograms fault records across the fleet. JSON encoding
	// sorts map keys, keeping serialized reports deterministic.
	FaultReasons map[string]int `json:"faultReasons,omitempty"`
	// FaultClasses histograms the kernel's fault-layer attribution.
	FaultClasses map[string]int `json:"faultClasses,omitempty"`

	CycleSummary   Summary `json:"cycleSummary"`
	BatterySummary Summary `json:"batterySummary"`
	// LifetimeSummary summarizes per-device ProjectedLifetimeHours.
	LifetimeSummary Summary `json:"lifetimeSummary"`

	// Latency is the fleet-wide merge of every device's post→dispatch
	// histogram; LatencySummary gives its cycle-domain percentiles (bucket
	// upper bounds) — the ISC-FLAT interrupt-latency view per isolation mode.
	Latency        obs.CycleHist  `json:"latency"`
	LatencySummary LatencySummary `json:"latencySummary"`

	PerDevice []DeviceResult `json:"perDevice"`
}

// LatencySummary holds cycle-domain order statistics of a merged latency
// histogram. Quantiles are bucket upper bounds (nearest-rank), Max is exact.
type LatencySummary struct {
	Count uint64 `json:"count"`
	P50   uint64 `json:"p50"`
	P90   uint64 `json:"p90"`
	P99   uint64 `json:"p99"`
	Max   uint64 `json:"max"`
}

// finalize recomputes every aggregate from PerDevice, which it sorts by
// device index so serialized reports are independent of completion order.
func (r *Report) finalize() {
	sort.Slice(r.PerDevice, func(i, j int) bool {
		return r.PerDevice[i].Device < r.PerDevice[j].Device
	})
	r.Devices = len(r.PerDevice)
	r.TotalEvents, r.TotalDispatches, r.TotalSyscalls = 0, 0, 0
	r.TotalCycles, r.TotalInsns, r.TotalFaults, r.DevicesFaulted = 0, 0, 0, 0
	r.TotalBrownouts, r.DevicesBrownedOut = 0, 0
	r.FaultReasons = nil
	r.FaultClasses = nil
	cycles := make([]float64, 0, len(r.PerDevice))
	battery := make([]float64, 0, len(r.PerDevice))
	lifetime := make([]float64, 0, len(r.PerDevice))
	for _, d := range r.PerDevice {
		r.TotalEvents += d.Events
		r.TotalDispatches += d.Dispatches
		r.TotalSyscalls += d.Syscalls
		r.TotalCycles += d.Cycles
		r.TotalInsns += d.Insns
		r.TotalFaults += d.Faults
		if d.Faults > 0 {
			r.DevicesFaulted++
		}
		r.TotalBrownouts += d.Brownouts
		if d.Brownouts > 0 {
			r.DevicesBrownedOut++
		}
		for _, reason := range d.FaultReasons {
			if r.FaultReasons == nil {
				r.FaultReasons = make(map[string]int)
			}
			r.FaultReasons[reason]++
		}
		for _, class := range d.FaultClasses {
			if r.FaultClasses == nil {
				r.FaultClasses = make(map[string]int)
			}
			r.FaultClasses[class]++
		}
		cycles = append(cycles, float64(d.Cycles))
		battery = append(battery, d.WeeklyBatteryPct)
		lifetime = append(lifetime, d.ProjectedLifetimeHours)
	}
	r.CycleSummary = summarize(cycles)
	r.BatterySummary = summarize(battery)
	r.LifetimeSummary = summarize(lifetime)
	r.Latency = obs.CycleHist{}
	for i := range r.PerDevice {
		r.Latency.Merge(&r.PerDevice[i].Latency)
	}
	r.LatencySummary = LatencySummary{
		Count: r.Latency.Count(),
		P50:   r.Latency.Quantile(0.50),
		P90:   r.Latency.Quantile(0.90),
		P99:   r.Latency.Quantile(0.99),
		Max:   r.Latency.Max,
	}
}

// Merge folds another shard of the same scenario into r. The shards must
// agree on scenario identity (name, mode, seed, duration) and must not
// overlap in device indices.
func (r *Report) Merge(other *Report) error {
	if r.Scenario != other.Scenario || r.Mode != other.Mode ||
		r.Seed != other.Seed || r.DurationMS != other.DurationMS {
		return fmt.Errorf("fleet: cannot merge reports of different scenarios (%s/%s/%d vs %s/%s/%d)",
			r.Scenario, r.Mode, r.Seed, other.Scenario, other.Mode, other.Seed)
	}
	seen := make(map[int]bool, len(r.PerDevice))
	for _, d := range r.PerDevice {
		seen[d.Device] = true
	}
	for _, d := range other.PerDevice {
		if seen[d.Device] {
			return fmt.Errorf("fleet: merge overlap at device %d", d.Device)
		}
	}
	r.PerDevice = append(r.PerDevice, other.PerDevice...)
	r.finalize()
	return nil
}

// batteryPct projects a device's cycles over the scenario window to a weekly
// battery-budget percentage (the Figure 2 right-axis units, applied to whole
// workloads rather than isolation overheads).
func batteryPct(cycles uint64, durationMS uint64) float64 {
	return energy.BatteryImpactPercent(arp.ExtrapolateWeekly(float64(cycles), durationMS))
}

// projectedLifetimeHours projects a device's load onto the battery model's
// expected lifetime: the 14-day baseline minus the lifetime reduction of the
// weekly-extrapolated cycle load.
func projectedLifetimeHours(cycles uint64, durationMS uint64) float64 {
	weekly := arp.ExtrapolateWeekly(float64(cycles), durationMS)
	return float64(energy.BaselineLifetimeDays)*24 - energy.LifetimeReductionHours(weekly)
}
