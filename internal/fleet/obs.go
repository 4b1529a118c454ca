package fleet

import "amuletiso/internal/obs"

// Process-wide fleet metrics: run progress (the `-metrics-addr` /metrics and
// progress-line series) and build-cache effectiveness. Deterministic
// aggregates live in Report; these exist for live observation only.
var (
	mDevicesStarted = obs.Default.Counter(obs.MetricDevicesStarted,
		"Device simulations started.")
	mDevicesCompleted = obs.Default.Counter(obs.MetricDevicesCompleted,
		"Device simulations completed.")
	mInstrSimulated = obs.Default.Counter(obs.MetricInstrSimulated,
		"Simulated instructions retired across all devices.")
	mWearMS = obs.Default.Counter(obs.MetricWearMS,
		"Virtual wear-window milliseconds simulated across all devices.")
	mSnapshots = obs.Default.Counter(obs.MetricSnapshots,
		"In-flight device snapshots parked by resumable runs.")

	mCacheHits = obs.Default.Counter(obs.MetricBuildCacheHits,
		"Firmware build-cache hits.")
	mTemplateBuilds = obs.Default.Counter(obs.MetricTemplateBuilds,
		"Boot templates captured.")
	mTemplateHits = obs.Default.Counter(obs.MetricTemplateHits,
		"Boot-template cache hits.")

	mBrownouts = obs.Default.Counter(obs.MetricBrownouts,
		"Brownout power-loss faults taken across all devices.")
	mReboots = obs.Default.Counter(obs.MetricReboots,
		"Post-brownout reboots completed across all devices.")
	mChargePJ = obs.Default.Gauge(obs.MetricChargePJ,
		"Supercapacitor charge of the most recently integrated device, picojoules.")
	mFirstBrownout = obs.Default.Histogram(obs.MetricFirstBrownoutMS,
		"Virtual milliseconds until each device's first brownout.",
		[]uint64{1000, 5000, 10000, 20000, 30000, 45000, 60000, 120000, 300000})
)
