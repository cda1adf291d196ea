package cluster

// link is one point-to-point wire of the topology. Frames take one
// tick per hop (plus any injected delay); a partitioned link drops
// everything, including what was already in flight — a yanked cable,
// not a paused one.
type link struct {
	id    int // 1-based fault target
	queue []inflight

	partitionedUntil uint64
	delayExtra       uint64 // one-shot, next frame only
	corruptNext      bool
}

type inflight struct {
	at       uint64 // delivery tick
	data     []byte
	toClient bool
	toLB     bool
}

// due removes the frames whose delivery tick has arrived and appends
// them to out in send order.
func (l *link) due(tick uint64, out []inflight) []inflight {
	keep := l.queue[:0]
	for _, f := range l.queue {
		if f.at <= tick {
			out = append(out, f)
		} else {
			keep = append(keep, f)
		}
	}
	l.queue = keep
	return out
}

// flush drops everything in flight on l, giving each frame's buffer
// back for reuse, and reports how many frames died.
func (c *Cluster) flush(l *link) uint64 {
	for _, f := range l.queue {
		c.free = append(c.free, f.data)
	}
	n := uint64(len(l.queue))
	l.queue = l.queue[:0]
	return n
}
