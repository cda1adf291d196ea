// Package mck is the model-checking harness around the executable
// specification: a seeded, typed syscall-program generator (swarm
// profiles over the op vocabulary), a differential runner that executes
// each program through verify.Checker, in lockstep on the concrete
// kernel and on the pure spec interpreter (spec.Interp), and reports
// the first field-level divergence of Ψ, a delta-debugging shrinker that reduces a failing program to a
// minimal self-contained repro, and a schedule explorer that perturbs
// the big-lock hand-off order and work-stealing victims per seed.
//
// Programs are flat op lists with total binary and text encodings, so
// native `go test -fuzz` corpora, repro files, and generated traces are
// all the same object.
package mck

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the syscall vocabulary the generator emits, a subset
// of the syscalls the interpreter in internal/spec models.
type Kind uint8

const (
	KMmap Kind = iota
	KMunmap
	KNewContainer
	KNewProcess
	KNewProcessIn
	KNewThreadIn
	KExitThread
	KNewEndpoint
	KCloseEndpoint
	KSend
	KRecv
	KCall
	KYield
	KKillProcess
	KKillContainer
	KIommuCreate
	KSendAsync
	KBatch
	numKinds
)

var kindNames = [numKinds]string{
	"mmap", "munmap", "new_container", "new_proc", "new_proc_in",
	"new_thread_in", "exit_thread", "new_endpoint", "close_endpoint",
	"send", "recv", "call", "yield", "kill_proc", "kill_container",
	"iommu_create", "send_async", "batch",
}

func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// kindByName is the inverse of kindNames, for repro parsing.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, numKinds)
	for k, n := range kindNames {
		m[n] = Kind(k)
	}
	return m
}()

// Op is one abstract syscall. Actor indexes the thread registry (threads
// in creation order, modulo its current length); A, B, C are typed per
// kind by the resolver in run.go — registry indices, slots, counts,
// virtual-address offsets — always reduced modulo the valid-plus-probe
// range, so every bit pattern is a meaningful program.
type Op struct {
	Kind  Kind
	Actor uint8
	A     uint16
	B     uint16
	C     uint16
}

func (o Op) String() string {
	return fmt.Sprintf("op %s actor=%d a=%d b=%d c=%d", o.Kind, o.Actor, o.A, o.B, o.C)
}

// Program is a syscall program plus the machine shape it runs on.
type Program struct {
	Frames int
	Cores  int
	Ops    []Op
}

// Default machine shape for programs decoded from raw fuzz bytes.
const (
	DefaultFrames = 8192
	DefaultCores  = 4
)

const opBytes = 8

// Encode serializes the op list (not the machine shape) to the compact
// binary form used as fuzz-corpus payload: 8 bytes per op,
// little-endian.
func (p Program) Encode() []byte {
	out := make([]byte, 0, len(p.Ops)*opBytes)
	var buf [opBytes]byte
	for _, o := range p.Ops {
		buf[0] = byte(o.Kind)
		buf[1] = o.Actor
		binary.LittleEndian.PutUint16(buf[2:], o.A)
		binary.LittleEndian.PutUint16(buf[4:], o.B)
		binary.LittleEndian.PutUint16(buf[6:], o.C)
		out = append(out, buf[:]...)
	}
	return out
}

// FromBytes decodes a program from raw bytes. The decoding is total —
// every input is a valid program (kinds wrap modulo the vocabulary,
// trailing partial ops are dropped) — so the fuzzer's mutations always
// produce executable programs.
func FromBytes(data []byte) Program {
	p := Program{Frames: DefaultFrames, Cores: DefaultCores}
	for len(data) >= opBytes {
		p.Ops = append(p.Ops, Op{
			Kind:  Kind(data[0] % uint8(numKinds)),
			Actor: data[1],
			A:     binary.LittleEndian.Uint16(data[2:]),
			B:     binary.LittleEndian.Uint16(data[4:]),
			C:     binary.LittleEndian.Uint16(data[6:]),
		})
		data = data[opBytes:]
	}
	return p
}

// reproHeader is the first line of the self-contained repro format.
const reproHeader = "# atmo-mck repro v1"

// EncodeRepro serializes the whole program — machine shape included —
// to the self-contained text repro format replayed by `atmo-fuzz
// -repro`. The encoding is byte-deterministic: a fixed program always
// produces identical bytes (the shrinker's goldens rely on this).
func (p Program) EncodeRepro() []byte {
	var b bytes.Buffer
	fmt.Fprintln(&b, reproHeader)
	fmt.Fprintf(&b, "frames %d\n", p.Frames)
	fmt.Fprintf(&b, "cores %d\n", p.Cores)
	for _, o := range p.Ops {
		fmt.Fprintln(&b, o.String())
	}
	return b.Bytes()
}

// ParseRepro parses the text repro format. Unknown directives are
// errors — a repro file is a precise artifact, not a lenient config.
func ParseRepro(data []byte) (Program, error) {
	p := Program{Frames: DefaultFrames, Cores: DefaultCores}
	sc := bufio.NewScanner(bytes.NewReader(data))
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if line == 1 {
			if text != reproHeader {
				return p, fmt.Errorf("line 1: want %q, got %q", reproHeader, text)
			}
			continue
		}
		if strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "frames", "cores":
			if len(fields) != 2 {
				return p, fmt.Errorf("line %d: want %q <n>", line, fields[0])
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 {
				return p, fmt.Errorf("line %d: bad %s %q", line, fields[0], fields[1])
			}
			if fields[0] == "frames" {
				p.Frames = n
			} else {
				p.Cores = n
			}
		case "op":
			o, err := parseOpLine(fields)
			if err != nil {
				return p, fmt.Errorf("line %d: %w", line, err)
			}
			p.Ops = append(p.Ops, o)
		default:
			return p, fmt.Errorf("line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return p, err
	}
	if line == 0 {
		return p, fmt.Errorf("empty repro")
	}
	return p, nil
}

func parseOpLine(fields []string) (Op, error) {
	var o Op
	if len(fields) != 6 {
		return o, fmt.Errorf("want op <kind> actor= a= b= c=, got %d fields", len(fields))
	}
	k, ok := kindByName[fields[1]]
	if !ok {
		return o, fmt.Errorf("unknown op kind %q", fields[1])
	}
	o.Kind = k
	for i, key := range []string{"actor=", "a=", "b=", "c="} {
		f := fields[2+i]
		if !strings.HasPrefix(f, key) {
			return o, fmt.Errorf("field %d: want %s<n>, got %q", 2+i, key, f)
		}
		n, err := strconv.ParseUint(f[len(key):], 10, 16)
		if err != nil {
			return o, fmt.Errorf("field %q: %v", f, err)
		}
		switch i {
		case 0:
			if n > 255 {
				return o, fmt.Errorf("actor %d out of range", n)
			}
			o.Actor = uint8(n)
		case 1:
			o.A = uint16(n)
		case 2:
			o.B = uint16(n)
		case 3:
			o.C = uint16(n)
		}
	}
	return o, nil
}
