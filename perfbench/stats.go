package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// median returns the middle value (mean of the two middle values for an
// even count), 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail reports the highest of the usual percentiles that still has at
// least ten samples beyond it, by nearest rank; ok is false when even p50
// has fewer than ten samples above it.
func tail(v []float64) (label string, value float64, ok bool) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		rank := int(math.Ceil(float64(len(s))*p/100)) - 1 // nearest rank, 0-based
		if rank >= 0 && len(s)-1-rank >= 10 {
			return fmt.Sprintf("p%g", p), s[rank], true
		}
	}
	return "", 0, false
}

// env is the machine and build block every result carries, so a number is
// always read next to the box and the source that produced it.
type env struct {
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	GoVersion    string `json:"go_version"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	RAMBytes     uint64 `json:"ram_bytes"`
	DataDirFS    string `json:"data_dir_fs"`
}

func environment(root, dataDir string) env {
	var si syscall.Sysinfo_t
	ram := uint64(0)
	if syscall.Sysinfo(&si) == nil {
		ram = uint64(si.Totalram) * uint64(si.Unit)
	}
	return env{
		Commit:       gitCommit(root),
		SourceSHA256: sourceHash(root),
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		RAMBytes:     ram,
		DataDirFS:    fsType(dataDir),
	}
}

// gitCommit resolves HEAD from the .git directory without running git;
// "unknown" outside a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceHash is a SHA-256 over the paths and contents of every Go source
// and go.mod file under root, skipping hidden directories; it identifies
// the measured source when the checkout carries no git metadata.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683e: "btrfs", 0x6969: "nfs",
		0x01021997: "9p", 0x65735546: "fuse", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("statfs-0x%x", st.Type)
}

// configsHash is a SHA-256 over a configuration set's sorted file names
// and texts: equal hashes mean byte-identical outputs.
func configsHash(configs map[string]string) string {
	names := make([]string, 0, len(configs))
	for n := range configs {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%d:%s%d:%s", len(n), n, len(configs[n]), configs[n])
	}
	return hex.EncodeToString(h.Sum(nil))
}
