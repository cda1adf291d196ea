package apps

import (
	"fmt"

	"atmosphere/internal/netproto"
)

// WrkClient is the wrk substitute for the httpd evaluation (§6.6): it
// opens N concurrent TCP-lite connections to the server, pipelines one
// request per connection round-robin, and consumes responses off the
// transmit path. It implements nic.FrameSource, so it plugs into the
// device model exactly where Pktgen does.
type WrkClient struct {
	srvMAC, cliMAC netproto.MAC
	srvIP, cliIP   netproto.IPv4
	request        []byte

	conns []wrkConn
	next  int
	frame [2048]byte

	Sent, Responses, Handshakes uint64
}

type wrkState uint8

const (
	wrkClosed wrkState = iota
	wrkSynSent
	wrkReady   // SYN|ACK seen; first data segment completes the handshake
	wrkIdle    // established, no request in flight
	wrkWaiting // request in flight
)

type wrkConn struct {
	state    wrkState
	port     uint16
	seq, ack uint32
}

// NewWrkClient builds a client with n connections requesting path.
func NewWrkClient(n int, path string) *WrkClient {
	w := &WrkClient{
		srvMAC: netproto.MAC{2, 0, 0, 0, 0, 2}, cliMAC: netproto.MAC{2, 0, 0, 0, 0, 9},
		srvIP: netproto.IPv4{192, 168, 1, 1}, cliIP: netproto.IPv4{10, 0, 0, 9},
		request: []byte(fmt.Sprintf("GET %s HTTP/1.1\r\nHost: atmo\r\nUser-Agent: wrk\r\n\r\n", path)),
	}
	for i := 0; i < n; i++ {
		w.conns = append(w.conns, wrkConn{state: wrkClosed, port: uint16(40000 + i), seq: uint32(1000 * (i + 1))})
	}
	return w
}

// Next emits the next client segment (nic.FrameSource). Connections
// progress round-robin: SYN when closed, a request when ready or idle,
// and a bare keep-alive ACK when everything is waiting (the server
// charges real work for those too, as real servers do).
func (w *WrkClient) Next() []byte {
	for scan := 0; scan < len(w.conns); scan++ {
		c := &w.conns[w.next]
		w.next = (w.next + 1) % len(w.conns)
		switch c.state {
		case wrkClosed:
			n, err := netproto.BuildTCP(w.frame[:], w.cliMAC, w.srvMAC, w.cliIP, w.srvIP,
				c.port, 80, c.seq, 0, netproto.TCPSyn, nil)
			if err != nil {
				panic(err)
			}
			c.state = wrkSynSent
			w.Sent++
			return w.frame[:n]
		case wrkReady, wrkIdle:
			flags := uint8(netproto.TCPAck | netproto.TCPPsh)
			n, err := netproto.BuildTCP(w.frame[:], w.cliMAC, w.srvMAC, w.cliIP, w.srvIP,
				c.port, 80, c.seq, c.ack, flags, w.request)
			if err != nil {
				panic(err)
			}
			c.seq += uint32(len(w.request))
			c.state = wrkWaiting
			w.Sent++
			return w.frame[:n]
		}
	}
	// Every connection is mid-flight: emit a bare ACK on the last one.
	c := &w.conns[w.next]
	n, err := netproto.BuildTCP(w.frame[:], w.cliMAC, w.srvMAC, w.cliIP, w.srvIP,
		c.port, 80, c.seq, c.ack, netproto.TCPAck, nil)
	if err != nil {
		panic(err)
	}
	w.Sent++
	return w.frame[:n]
}

// Consume processes one server->client frame (wired to the device's
// TxSink).
func (w *WrkClient) Consume(frame []byte) {
	p, err := netproto.ParseTCP(frame)
	if err != nil {
		return
	}
	for i := range w.conns {
		c := &w.conns[i]
		if c.port != p.DstPort {
			continue
		}
		switch {
		case p.Flags&netproto.TCPSyn != 0 && p.Flags&netproto.TCPAck != 0:
			if c.state == wrkSynSent {
				c.seq++
				c.ack = p.Seq + 1
				c.state = wrkReady
				w.Handshakes++
			}
		case len(p.Payload) > 0:
			if c.state == wrkWaiting {
				c.ack = p.Seq + uint32(len(p.Payload))
				c.state = wrkIdle
				w.Responses++
			}
		}
		return
	}
}
