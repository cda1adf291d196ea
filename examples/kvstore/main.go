// KVStore: the network-attached key-value store of §6.6 — a FNV
// open-addressing hash table served over UDP through the user-level
// ixgbe driver, with the application linked against the driver
// (atmo-driver configuration).
package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"atmosphere/internal/apps"
	"atmosphere/internal/drivers"
	"atmosphere/internal/nic"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run serves the traffic and reports the store's counters to w.
func run(w io.Writer) error {
	store, err := apps.NewKVStore(1_000_000, 16, 16)
	if err != nil {
		return err
	}

	// Traffic: 90% GET / 10% SET over a 20K-key working set, carried in
	// 64-byte UDP requests from 256 client flows.
	const keyspace = 20_000
	gen := nic.NewGenerator(7, 256, 60)
	gen.SetPayload(func(i uint64, buf []byte) int {
		// Each decade of requests SETs one key first, then GETs it, so
		// reads always find data.
		key := make([]byte, 16)
		binary.LittleEndian.PutUint64(key, (i/10*10)%keyspace)
		op := byte(apps.KVGet)
		var val []byte
		if i%10 == 0 {
			op = apps.KVSet
			val = make([]byte, 16)
			binary.LittleEndian.PutUint64(val, i)
		}
		n, err := apps.BuildKVRequest(buf, op, key, val)
		if err != nil {
			panic(err)
		}
		return n
	})

	env, err := drivers.NewNetEnv(drivers.CfgDriverLinked, gen)
	if err != nil {
		return err
	}
	var replies int
	env.Dev.TxSink = func(frame []byte) { replies++ }

	rates, err := env.RunRx(16384, 32, store.Serve)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "served %d requests at %.2f Mreq/s\n", rates.Packets, rates.Mpps)
	fmt.Fprintf(w, "table: %d entries used of 1M; gets=%d (hits=%d, misses=%d) sets=%d\n",
		store.Used(), store.Gets, store.Hits, store.Misses, store.Sets)
	fmt.Fprintf(w, "replies on the wire: %d\n", replies)
	if store.Hits == 0 {
		return errors.New("no hits — workload broken")
	}
	hitRate := float64(store.Hits) / float64(store.Gets) * 100
	fmt.Fprintf(w, "hit rate: %.1f%% (keys become hits once their SET has arrived)\n", hitRate)
	return nil
}
