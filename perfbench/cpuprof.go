package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
)

// cpuShares runs fn under the CPU profiler, writes the profile to path for
// go tool pprof, and charges every sample to a module: the package of the
// first perdnn/... frame above the sample's leaf, or "runtime" when an
// allocation or garbage-collection frame comes first. Samples with neither
// go to "other". It returns each module's share of all samples and the
// sample count.
func cpuShares(path string, fn func() error) (map[string]float64, int64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	stacks, err := parseProfile(&buf)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	count := make(map[string]int64)
	var total int64
	for _, st := range stacks {
		count[moduleOf(st.frames)] += st.weight
		total += st.weight
	}
	shares := make(map[string]float64, len(count))
	for m, c := range count {
		shares[m] = ratio(float64(c), float64(total))
	}
	return shares, total, nil
}

// gcFrames mark allocation and garbage-collection work.
var gcFrames = []string{
	"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc",
	"runtime.gcDrain", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart",
	"runtime.markroot", "runtime.scanobject", "runtime.sweepone",
}

// moduleOf attributes one stack, given leaf first.
func moduleOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "perdnn/"); ok {
			rest = strings.TrimPrefix(rest, "internal/")
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			return rest
		}
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "runtime"
			}
		}
	}
	return "other"
}

// stack is one profile sample: its function names, leaf first, and its
// weight in samples.
type stack struct {
	frames []string
	weight int64
}

// parseProfile decodes the gzipped profile.proto a CPU profile is written
// in, keeping only what attribution needs: each sample's first value and
// the function names along its stack.
func parseProfile(r io.Reader) ([]stack, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		weight int64
	}
	var (
		samples   []sample
		strs      []string
		funcName  = map[uint64]int64{}    // function ID -> string index
		locFuncs  = map[uint64][]uint64{} // location ID -> function IDs, innermost first
		fieldErr  error
		readField = func(b []byte, visit func(num int, wt int, v uint64, body []byte)) {
			for len(b) > 0 && fieldErr == nil {
				key, n := uvarint(b)
				if n == 0 {
					fieldErr = errors.New("truncated field key")
					return
				}
				b = b[n:]
				num, wt := int(key>>3), int(key&7)
				switch wt {
				case 0:
					v, n := uvarint(b)
					if n == 0 {
						fieldErr = errors.New("truncated varint")
						return
					}
					b = b[n:]
					visit(num, wt, v, nil)
				case 1:
					if len(b) < 8 {
						fieldErr = errors.New("truncated fixed64")
						return
					}
					b = b[8:]
				case 2:
					l, n := uvarint(b)
					if n == 0 || uint64(len(b)-n) < l {
						fieldErr = errors.New("truncated bytes field")
						return
					}
					visit(num, wt, 0, b[n:n+int(l)])
					b = b[n+int(l):]
				case 5:
					if len(b) < 4 {
						fieldErr = errors.New("truncated fixed32")
						return
					}
					b = b[4:]
				default:
					fieldErr = fmt.Errorf("unknown wire type %d", wt)
					return
				}
			}
		}
		// ints reads a repeated integer field, packed or not.
		ints = func(wt int, v uint64, body []byte) []uint64 {
			if wt == 0 {
				return []uint64{v}
			}
			var out []uint64
			for len(body) > 0 {
				x, n := uvarint(body)
				if n == 0 {
					fieldErr = errors.New("truncated packed varint")
					return out
				}
				out = append(out, x)
				body = body[n:]
			}
			return out
		}
	)
	readField(data, func(num, wt int, v uint64, body []byte) {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			readField(body, func(num, wt int, v uint64, body []byte) {
				switch num {
				case 1:
					s.locs = append(s.locs, ints(wt, v, body)...)
				case 2:
					if vals := ints(wt, v, body); first && len(vals) > 0 {
						s.weight = int64(vals[0])
						first = false
					}
				}
			})
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			readField(body, func(num, wt int, v uint64, body []byte) {
				switch num {
				case 1:
					id = v
				case 4: // Line
					readField(body, func(num, wt int, v uint64, _ []byte) {
						if num == 1 {
							funcs = append(funcs, v)
						}
					})
				}
			})
			locFuncs[id] = funcs
		case 5: // Function
			var id uint64
			var name int64
			readField(body, func(num, wt int, v uint64, _ []byte) {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			})
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(body))
		}
	})
	if fieldErr != nil {
		return nil, fieldErr
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{weight: s.weight}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if i := funcName[fid]; i >= 0 && i < int64(len(strs)) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// uvarint decodes a protobuf varint; n is 0 when b is truncated.
func uvarint(b []byte) (v uint64, n int) {
	v, n = binary.Uvarint(b)
	if n <= 0 {
		return 0, 0
	}
	return v, n
}
