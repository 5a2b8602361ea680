package netsim

import "time"

// SpeedOfLightFiber is the propagation speed in optical fiber (~2/3 c),
// the figure that makes "faster-than-light correlation" a concrete win:
// a 100 km fiber hop costs ~500 µs one way.
const SpeedOfLightFiber = 2.0e8 // meters per second

// PropagationDelay converts a fiber distance to a one-way delay.
func PropagationDelay(distanceMeters float64) time.Duration {
	if !(distanceMeters >= 0) {
		panic("netsim: negative or NaN distance")
	}
	return time.Duration(distanceMeters / SpeedOfLightFiber * float64(time.Second))
}
