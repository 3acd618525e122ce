package fabric

// KeepHostPackets turns host-link send records off on n: every host link's
// data class holds its waiting *Packets, the eager model that
// FuzzHostQueueRecords and TestHostLinkHoldsRecords compare the records
// against. Call it before anything is injected.
func KeepHostPackets(n *Network) {
	for _, q := range n.hostUp {
		q.keepPackets = true
	}
}

// HostQueuePeak returns the most entries any host link's data class has held
// waiting: packets under KeepHostPackets, send records otherwise.
func HostQueuePeak(n *Network) int {
	peak := 0
	for _, q := range n.hostUp {
		peak = max(peak, q.peak)
	}
	return peak
}
