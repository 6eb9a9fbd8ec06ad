// Package probe is the -probe flag of bnserve and bncluster: one marginal
// query asked over the server's own HTTP endpoint.
package probe

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Marginal parses "name=value,..." and asks the server at addr for that
// assignment's marginal on /v1/marginal — the full HTTP path, not a
// shortcut through the tracker or the coordinator. The timeout bounds the
// whole probe so a wedged server turns into a nonzero exit, not a hung
// smoke script.
func Marginal(addr, probe string, timeout time.Duration) (float64, error) {
	assign := map[string]int{}
	for _, part := range strings.Split(probe, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return 0, fmt.Errorf("bad probe assignment %q, want name=value", part)
		}
		v, err := strconv.Atoi(kv[1])
		if err != nil {
			return 0, fmt.Errorf("bad probe value %q for %s", kv[1], kv[0])
		}
		assign[kv[0]] = v
	}
	body, err := json.Marshal(map[string]any{"assign": assign})
	if err != nil {
		return 0, err
	}
	client := &http.Client{Timeout: timeout}
	resp, err := client.Post("http://"+addr+"/v1/marginal", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("probe: status %d: %s", resp.StatusCode, bytes.TrimSpace(rb))
	}
	var env struct {
		Result struct {
			P float64 `json:"p"`
		} `json:"result"`
	}
	if err := json.Unmarshal(rb, &env); err != nil {
		return 0, err
	}
	return env.Result.P, nil
}
