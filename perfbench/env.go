package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// environment records what a run's numbers depend on; opts are the HTTP
// run's effective settings and outDir holds its data dirs.
func environment(flags []string, outDir string, w workload, cfg config, opts httpOpts) map[string]any {
	env := map[string]any{
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"gomaxprocs_env": os.Getenv("GOMAXPROCS"),
		"go_version":     runtime.Version(),
		"commit":         gitCommit(),
		"source_sha256":  sourceDigest("."),
		"lubm_scale":     1,
		"lubm_seed":      dataSeed,
		"workload_seed":  cfg.seed,
		"refserve_flags": strings.Join(flags, " "),
		"client":         "closed loop, 1 client, 1 keep-alive connection, loopback HTTP",
		"trace":          cfg.trace,
		"http_seconds":   opts.seconds,
		"setups":         opts.setups,
		"recovery_boots": opts.restarts,
	}
	if w.writes {
		env["wal_sync"] = "always"
		env["data_dir_fs"] = fsType(outDir)
	}
	return env
}

// gitCommit names the checkout's commit; it looks no further than the
// checkout's own .git.
func gitCommit() string {
	const unknown = "unknown (not a git checkout; see source_sha256)"
	if _, err := os.Stat(".git"); err != nil {
		return unknown
	}
	out, err := exec.Command("git", "--git-dir=.git", "rev-parse", "HEAD").Output()
	if err != nil {
		return unknown
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the Go sources and module files under root, so a
// run names the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if e.IsDir() && p != root && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(p, ".go") || e.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		_, _ = io.Copy(h, f) // a short read only changes the digest
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "0x" + strings.ToLower(hex.EncodeToString([]byte{byte(st.Type >> 24), byte(st.Type >> 16), byte(st.Type >> 8), byte(st.Type)}))
}
