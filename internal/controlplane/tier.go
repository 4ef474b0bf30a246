package controlplane

import (
	"fmt"

	"repro/internal/faults"
)

// Tier is an RC3E-style vFPGA provisioning tier (arXiv:1508.06843): the
// service model a tenant rents the fabric under. The tier decides how much
// of the catalog the tenant's vFPGA slice carries, how its admission
// quota defaults, how the dispatcher prioritizes it, and how aggressively
// fault-aborted work is retried before eviction.
type Tier int

// The three RC3E provisioning models.
const (
	// TierFull rents a whole physical FPGA setup exclusively: the largest
	// slice, the highest dispatch priority, and generous retries.
	TierFull Tier = iota
	// TierVirtualized rents a vFPGA share of a device: the default tier.
	TierVirtualized
	// TierBackground rents best-effort batch capacity: the smallest
	// slice, the deepest queue, the lowest priority, and a single retry —
	// background work aborted twice by faults is evicted.
	TierBackground
)

var tierNames = [...]string{
	TierFull:        "full",
	TierVirtualized: "virtualized",
	TierBackground:  "background",
}

// String returns the wire name of the tier.
func (t Tier) String() string {
	if t >= 0 && int(t) < len(tierNames) {
		return tierNames[t]
	}
	return fmt.Sprintf("Tier(%d)", int(t))
}

// ParseTier maps a wire tier name to a Tier. The empty string selects
// TierVirtualized (the default service model); anything else unknown is
// an error the decoder rejects.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "":
		return TierVirtualized, nil
	case "full":
		return TierFull, nil
	case "virtualized":
		return TierVirtualized, nil
	case "background":
		return TierBackground, nil
	}
	return TierVirtualized, fmt.Errorf("controlplane: unknown tier %q", s)
}

// Tiers lists the provisioning tiers in priority order.
func Tiers() []Tier { return []Tier{TierFull, TierVirtualized, TierBackground} }

// TierPolicy bundles everything the control plane derives from a tier.
type TierPolicy struct {
	// Priority orders dispatch across tenants within a shard; lower runs
	// first when several tenants have queued work.
	Priority int
	// GPPCores and RPEDevices describe the tenant's vFPGA slice: one
	// node carrying a GPP with this many cores plus these catalog FPGAs.
	GPPCores   int
	RPEDevices []string
	// MaxQueue bounds the tenant's pending queue; submissions beyond it
	// are rejected with queue_full.
	MaxQueue int
	// RatePerSec/Burst are the token-bucket admission defaults (tokens
	// are submissions). A zero rate disables refill-based limiting.
	RatePerSec float64
	Burst      float64
	// Retry bounds re-execution of fault-aborted tasks before eviction.
	Retry faults.RetryPolicy
}

// Policy returns the tier's default policy. The slice shapes follow the
// RC3E models: full tenants get a whole two-device setup, virtualized
// tenants one mid-size device, background tenants a small device with a
// deep best-effort queue.
func (t Tier) Policy() TierPolicy {
	switch t {
	case TierFull:
		return TierPolicy{
			Priority:   0,
			GPPCores:   4,
			RPEDevices: []string{"XC5VLX330T", "XC5VLX155T"},
			MaxQueue:   4096,
			RatePerSec: 2000,
			Burst:      4096,
			Retry:      faults.RetryPolicy{MaxRetries: 6, BackoffSeconds: 0.5, BackoffCapSeconds: 8},
		}
	case TierBackground:
		return TierPolicy{
			Priority:   2,
			GPPCores:   1,
			RPEDevices: []string{"XC5VLX30"},
			MaxQueue:   16384,
			RatePerSec: 500,
			Burst:      16384,
			// faults.RetryPolicy reads MaxRetries 0 as unlimited, so the
			// smallest bound is one retry.
			Retry: faults.RetryPolicy{MaxRetries: 1, BackoffSeconds: 0.5},
		}
	default: // TierVirtualized
		return TierPolicy{
			Priority:   1,
			GPPCores:   2,
			RPEDevices: []string{"XC5VLX110T"},
			MaxQueue:   8192,
			RatePerSec: 1000,
			Burst:      8192,
			Retry:      faults.RetryPolicy{MaxRetries: 3, BackoffSeconds: 0.5, BackoffCapSeconds: 4},
		}
	}
}
