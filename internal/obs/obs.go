// Package obs is the fleet-scale observability layer: a process-wide metrics
// registry with a Prometheus-text exposition endpoint, a per-device flight
// recorder of cycle-stamped trace events, and deterministic cycle-domain
// latency histograms.
//
// Observability has no off switch. Metrics are atomic counters; the flight
// recorder is a nil pointer check on the kernel hot path until the code that
// reads a recorder attaches one (a fault-trace fleet, `amuletsim -trace`,
// the torture harness's hosted cases). Nothing in this package may ever feed
// a simulation result: a kernel with a recorder attached runs to the same
// bytes as one without. The only observability data that reaches a report is
// the cycle-domain latency histogram, which is deterministic by construction
// (simulated cycles, never wall clock), and flight-recorder dumps a scenario
// explicitly requested.
//
// obs depends on the standard library only, so every internal package may
// import it without cycles.
package obs

// DefaultRing is the per-device flight-recorder capacity: enough to hold the
// last few dozen dispatches of context (gate crossings included) around a
// fault without measurable per-device memory cost at fleet scale.
const DefaultRing = 256

// Canonical metric names. Instrumented packages register under these names
// and CLIs look the same names up for progress lines and summary output, so
// the name is defined exactly once.
const (
	MetricDispatches    = "amulet_kernel_dispatches_total"
	MetricSyscalls      = "amulet_kernel_syscalls_total"
	MetricFaults        = "amulet_kernel_faults_total"
	MetricWatchdogTrips = "amulet_kernel_watchdog_trips_total"
	MetricRestarts      = "amulet_kernel_app_restarts_total"

	MetricFirmwareBuilds = "amulet_firmware_builds_total"
	MetricBuildCacheHits = "amulet_build_cache_hits_total"
	MetricTemplateBuilds = "amulet_boot_template_builds_total"
	MetricTemplateHits   = "amulet_boot_template_hits_total"

	MetricDevicesStarted   = "amulet_fleet_devices_started_total"
	MetricDevicesCompleted = "amulet_fleet_devices_completed_total"
	MetricInstrSimulated   = "amulet_fleet_instr_simulated_total"
	MetricWearMS           = "amulet_fleet_wear_ms_total"
	MetricSnapshots        = "amulet_fleet_snapshots_total"

	MetricJITBlocksCompiled = "amulet_jit_blocks_compiled"
	MetricJITStepsCompiled  = "amulet_jit_steps_compiled"
	MetricJITFlagsElided    = "amulet_jit_flag_stores_elided"
	MetricJITExtElided      = "amulet_jit_ext_words_elided"
	MetricJITAddrsFolded    = "amulet_jit_addrs_folded"
	MetricJITCompileNS      = "amulet_jit_compile_ns_total"
	MetricJITDeopts         = "amulet_jit_deopts_total"
	MetricInstrRetired      = "amulet_cpu_instr_retired_total"

	MetricCertDrops     = "amulet_mem_cert_drops_total"
	MetricWatchInval    = "amulet_mem_watch_invalidations_total"
	MetricPagesDirtied  = "amulet_mem_cow_pages_dirtied_total"
	MetricPagesRecycled = "amulet_mem_cow_pages_recycled_total"
	MetricTortureCase   = "amulet_torture_cases_total"

	MetricBrownouts       = "amulet_power_brownouts_total"
	MetricReboots         = "amulet_power_reboots_total"
	MetricChargePJ        = "amulet_power_charge_picojoules"
	MetricFirstBrownoutMS = "amulet_power_first_brownout_ms"
)
