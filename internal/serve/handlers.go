package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"shortcuts/internal/measure"
	"shortcuts/internal/scenario"
	"shortcuts/internal/topology"
)

// Handler returns the service's HTTP handler. Every request loads the
// serving state exactly once and answers wholly from it, so responses
// are never a mix of two worlds even while a swap publishes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.handleIndex)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/relays/best", s.handleBest)
	mux.HandleFunc("GET /v1/relays", s.handleRelays)
	mux.HandleFunc("GET /v1/relays/{id}", s.handleRelayShow)
	mux.HandleFunc("GET /v1/facilities", s.handleFacilities)
	mux.HandleFunc("GET /v1/facilities/{id}", s.handleFacilityShow)
	mux.HandleFunc("GET /v1/plans", s.handlePlans)
	mux.HandleFunc("GET /v1/disruptions", s.handleDisruptions)
	mux.HandleFunc("POST /v1/admin/swap", s.handleSwap)
	return mux
}

// st returns the current serving state (nil before Warm publishes).
func (s *Server) st() *servingState { return s.state.Load() }

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		// Structs marshalled here contain no unmarshalable types; this
		// is unreachable short of a programming error.
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	writeBody(w, code, append(b, '\n'))
}

func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// A failed write means the client went away; there is no one left
	// to report it to.
	_, _ = w.Write(body)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// notReady answers 503 when no serving state exists yet and reports
// whether it did.
func notReady(w http.ResponseWriter, st *servingState) bool {
	if st == nil {
		writeErr(w, http.StatusServiceUnavailable, "no serving state yet; poll /readyz")
		return true
	}
	return false
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"service": "relayserve",
		"endpoints": []string{
			"GET /healthz",
			"GET /readyz",
			"GET /v1/relays/best?src=<city|cc>&dst=<city|cc>",
			"GET /v1/relays?type=&cc=&facility=&limit=&offset=",
			"GET /v1/relays/{id}",
			"GET /v1/facilities?cc=&city=&name=&cloud=&top10=",
			"GET /v1/facilities/{id}",
			"GET /v1/plans?src=&dst=&improved=&limit=&offset=",
			"GET /v1/disruptions?active=",
			"POST /v1/admin/swap?seed=N&scenario=<name>",
		},
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// readyResponse is the /readyz body once a state serves. Degraded means
// the warm campaign ended with a disruption still active: the service
// keeps answering (ready stays true, the status stays 200) but flags
// that its plans were measured under duress, and — with self-healing on
// — that they already route around the suspect city.
type readyResponse struct {
	Ready             bool      `json:"ready"`
	Degraded          bool      `json:"degraded,omitempty"`
	ActiveDisruptions int       `json:"active_disruptions,omitempty"`
	SelfHeal          bool      `json:"self_heal,omitempty"`
	RelaysHealed      int       `json:"relays_healed,omitempty"`
	Seed              int64     `json:"seed"`
	Scenario          string    `json:"scenario"`
	Corridors         int       `json:"corridors"`
	Rounds            int       `json:"rounds"`
	BuiltAt           time.Time `json:"built_at"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.st()
	if st == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]bool{"ready": false})
		return
	}
	active := 0
	for i := range st.disruptions {
		if st.disruptions[i].Active() {
			active++
		}
	}
	writeJSON(w, http.StatusOK, readyResponse{
		Ready:             true,
		Degraded:          st.degraded,
		ActiveDisruptions: active,
		SelfHeal:          st.selfHeal,
		RelaysHealed:      st.relaysHealed,
		Seed:              st.seed,
		Scenario:          st.scenName,
		Corridors:         len(st.plans),
		Rounds:            st.rounds,
		BuiltAt:           st.builtAt,
	})
}

// BestResponse answers /v1/relays/best: the corridor's plan under the
// serving state's (seed, scenario).
type BestResponse struct {
	Seed     int64  `json:"seed"`
	Scenario string `json:"scenario"`
	Rounds   int    `json:"rounds"`
	Plan     Plan   `json:"plan"`
}

func (s *Server) handleBest(w http.ResponseWriter, r *http.Request) {
	st := s.st()
	if notReady(w, st) {
		return
	}
	src := r.URL.Query().Get("src")
	dst := r.URL.Query().Get("dst")
	if src == "" || dst == "" {
		writeErr(w, http.StatusBadRequest, "src and dst query parameters are required (city name or country code)")
		return
	}
	ccS, ok := st.resolveLoc(src)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown location %q", src)
		return
	}
	ccD, ok := st.resolveLoc(dst)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown location %q", dst)
		return
	}
	if ccS == ccD {
		writeErr(w, http.StatusBadRequest, "src and dst resolve to the same country (%s); a corridor needs two", ccS)
		return
	}
	key := measure.CorridorOf(ccS, ccD)
	if b, ok := st.bestCache.Load(key); ok {
		writeBody(w, http.StatusOK, b.([]byte))
		return
	}
	idx, ok := st.planIdx[key]
	if !ok {
		writeErr(w, http.StatusNotFound,
			"no observations for corridor %s-%s in the warm campaign (%d corridors measured)",
			key.A, key.B, len(st.plans))
		return
	}
	resp := BestResponse{Seed: st.seed, Scenario: st.scenName, Rounds: st.rounds, Plan: st.plans[idx]}
	b, err := json.Marshal(resp)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "encoding response")
		return
	}
	b = append(b, '\n')
	// Cache the rendered bytes: the plan is immutable for this state's
	// lifetime, so cached and fresh responses are byte-identical.
	st.bestCache.Store(key, b)
	writeBody(w, http.StatusOK, b)
}

// FacilityInfo is one colocation facility in API responses.
type FacilityInfo struct {
	ID         int      `json:"id"` // synthetic PeeringDB identifier
	Name       string   `json:"name"`
	City       string   `json:"city"`
	CC         string   `json:"cc"`
	Continent  string   `json:"continent"`
	ListedNets int      `json:"listed_nets"`
	Members    int      `json:"members"`
	IXPs       []string `json:"ixps"`
	Cloud      bool     `json:"cloud"`
	PDBTop10   bool     `json:"pdb_top10"`
	CORRelays  int      `json:"cor_relays"` // verified colo relays hosted here
}

func (st *servingState) facilityInfo(f *topology.Facility) FacilityInfo {
	city := &st.world.Topo.Cities[f.City]
	ixps := f.IXPs
	if ixps == nil {
		ixps = []string{}
	}
	return FacilityInfo{
		ID:         f.PDBID,
		Name:       f.Name,
		City:       city.Name,
		CC:         city.CC,
		Continent:  city.Continent,
		ListedNets: f.ListedNets,
		Members:    len(f.Members),
		IXPs:       ixps,
		Cloud:      f.Cloud,
		PDBTop10:   f.PDBTop10,
		CORRelays:  st.corBy[f.PDBID],
	}
}

func (s *Server) handleFacilities(w http.ResponseWriter, r *http.Request) {
	st := s.st()
	if notReady(w, st) {
		return
	}
	q := r.URL.Query()
	cc := strings.ToUpper(q.Get("cc"))
	city := strings.ToLower(q.Get("city"))
	name := strings.ToLower(q.Get("name"))
	cloud, cloudSet, err := boolFilter(q.Get("cloud"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad cloud filter: %v", err)
		return
	}
	top10, top10Set, err := boolFilter(q.Get("top10"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad top10 filter: %v", err)
		return
	}
	limit, offset, err := pageParams(q, 0)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	var out []FacilityInfo
	for _, f := range st.world.Registry.Facilities() {
		c := &st.world.Topo.Cities[f.City]
		if cc != "" && c.CC != cc {
			continue
		}
		if city != "" && strings.ToLower(c.Name) != city {
			continue
		}
		if name != "" && !strings.Contains(strings.ToLower(f.Name), name) {
			continue
		}
		if cloudSet && f.Cloud != cloud {
			continue
		}
		if top10Set && f.PDBTop10 != top10 {
			continue
		}
		out = append(out, st.facilityInfo(f))
	}
	total := len(out)
	writeJSON(w, http.StatusOK, map[string]any{
		"count":      total,
		"facilities": page(out, limit, offset),
	})
}

func (s *Server) handleFacilityShow(w http.ResponseWriter, r *http.Request) {
	st := s.st()
	if notReady(w, st) {
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "facility id must be the numeric PeeringDB id, got %q", r.PathValue("id"))
		return
	}
	i, ok := st.facPDB[id]
	if !ok {
		writeErr(w, http.StatusNotFound, "no facility with id %d", id)
		return
	}
	writeJSON(w, http.StatusOK, st.facilityInfo(st.world.Registry.Facilities()[i]))
}

// RelayInfo is one catalog relay in API responses.
type RelayInfo struct {
	Index       int    `json:"index"` // stable catalog position
	ID          string `json:"id"`
	Type        string `json:"type"`
	CC          string `json:"cc"`
	City        string `json:"city"`
	Facility    string `json:"facility,omitempty"`
	FacilityPDB int    `json:"facility_pdb,omitempty"`
}

func (s *Server) handleRelays(w http.ResponseWriter, r *http.Request) {
	st := s.st()
	if notReady(w, st) {
		return
	}
	q := r.URL.Query()
	typ := strings.ToUpper(q.Get("type"))
	cc := strings.ToUpper(q.Get("cc"))
	var facility int
	if v := q.Get("facility"); v != "" {
		var err error
		if facility, err = strconv.Atoi(v); err != nil {
			writeErr(w, http.StatusBadRequest, "facility filter must be the numeric PeeringDB id, got %q", v)
			return
		}
	}
	// Relay catalogs reach millions of entries at the scale tier, so the
	// list defaults to a 100-entry page; count always reports the full
	// match cardinality.
	limit, offset, err := pageParams(q, 100)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	total := 0
	var out []RelayInfo
	for i := range st.world.Catalog.Relays {
		rel := &st.world.Catalog.Relays[i]
		if typ != "" && strings.ToUpper(rel.Type.String()) != typ {
			continue
		}
		if cc != "" && rel.CC != cc {
			continue
		}
		if facility != 0 && rel.FacilityPDB != facility {
			continue
		}
		if total >= offset && (limit <= 0 || len(out) < limit) {
			out = append(out, RelayInfo{
				Index:       rel.Index,
				ID:          rel.ID,
				Type:        rel.Type.String(),
				CC:          rel.CC,
				City:        st.world.Topo.Cities[rel.City].Name,
				Facility:    rel.FacilityName,
				FacilityPDB: rel.FacilityPDB,
			})
		}
		total++
	}
	if out == nil {
		out = []RelayInfo{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": total, "relays": out})
}

func (s *Server) handleRelayShow(w http.ResponseWriter, r *http.Request) {
	st := s.st()
	if notReady(w, st) {
		return
	}
	id := r.PathValue("id")
	for i := range st.world.Catalog.Relays {
		rel := &st.world.Catalog.Relays[i]
		if rel.ID != id {
			continue
		}
		writeJSON(w, http.StatusOK, RelayInfo{
			Index:       rel.Index,
			ID:          rel.ID,
			Type:        rel.Type.String(),
			CC:          rel.CC,
			City:        st.world.Topo.Cities[rel.City].Name,
			Facility:    rel.FacilityName,
			FacilityPDB: rel.FacilityPDB,
		})
		return
	}
	writeErr(w, http.StatusNotFound, "no relay with id %q", id)
}

func (s *Server) handlePlans(w http.ResponseWriter, r *http.Request) {
	st := s.st()
	if notReady(w, st) {
		return
	}
	q := r.URL.Query()
	var ccS, ccD string
	if v := q.Get("src"); v != "" {
		cc, ok := st.resolveLoc(v)
		if !ok {
			writeErr(w, http.StatusNotFound, "unknown location %q", v)
			return
		}
		ccS = cc
	}
	if v := q.Get("dst"); v != "" {
		cc, ok := st.resolveLoc(v)
		if !ok {
			writeErr(w, http.StatusNotFound, "unknown location %q", v)
			return
		}
		ccD = cc
	}
	improved, improvedSet, err := boolFilter(q.Get("improved"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad improved filter: %v", err)
		return
	}
	limit, offset, err := pageParams(q, 0)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	matches := func(p *Plan, cc string) bool { return cc == "" || p.Src == cc || p.Dst == cc }
	var out []Plan
	for i := range st.plans {
		p := &st.plans[i]
		if !matches(p, ccS) || !matches(p, ccD) {
			continue
		}
		if improvedSet && (p.Relay != nil) != improved {
			continue
		}
		out = append(out, *p)
	}
	total := len(out)
	writeJSON(w, http.StatusOK, map[string]any{
		"seed":     st.seed,
		"scenario": st.scenName,
		"count":    total,
		"plans":    page(out, limit, offset),
	})
}

// DisruptionInfo is one detected disruption event in API responses.
type DisruptionInfo struct {
	ID             int      `json:"id"`
	Kind           string   `json:"kind"`
	Active         bool     `json:"active"`
	OnsetRound     int      `json:"onset_round"`
	ConfirmedRound int      `json:"confirmed_round"`
	EndRound       int      `json:"end_round"` // -1 while active
	City           string   `json:"city,omitempty"`
	CC             string   `json:"cc,omitempty"`
	Continent      string   `json:"continent,omitempty"`
	Facility       string   `json:"facility,omitempty"`
	FacilityPDB    int      `json:"facility_pdb,omitempty"`
	Corridors      []string `json:"corridors"` // "A-B" country pairs
	Severity       float64  `json:"severity,omitempty"`
	DarkCorridors  int      `json:"dark_corridors,omitempty"`
}

func (s *Server) handleDisruptions(w http.ResponseWriter, r *http.Request) {
	st := s.st()
	if notReady(w, st) {
		return
	}
	activeOnly, activeSet, err := boolFilter(r.URL.Query().Get("active"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad active filter: %v", err)
		return
	}
	activeCount := 0
	out := []DisruptionInfo{}
	for i := range st.disruptions {
		ev := &st.disruptions[i]
		if ev.Active() {
			activeCount++
		}
		if activeSet && ev.Active() != activeOnly {
			continue
		}
		corridors := make([]string, len(ev.Corridors))
		for j, c := range ev.Corridors {
			corridors[j] = c.A + "-" + c.B
		}
		out = append(out, DisruptionInfo{
			ID:             ev.ID,
			Kind:           ev.Kind.String(),
			Active:         ev.Active(),
			OnsetRound:     ev.OnsetRound,
			ConfirmedRound: ev.ConfirmedRound,
			EndRound:       ev.EndRound,
			City:           ev.City,
			CC:             ev.CC,
			Continent:      ev.Continent,
			Facility:       ev.Facility,
			FacilityPDB:    ev.FacilityPDB,
			Corridors:      corridors,
			Severity:       ev.Severity,
			DarkCorridors:  ev.DarkCorridors,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"seed":          st.seed,
		"scenario":      st.scenName,
		"self_heal":     st.selfHeal,
		"degraded":      st.degraded,
		"active":        activeCount,
		"count":         len(out),
		"disruptions":   out,
		"relays_healed": st.relaysHealed,
	})
}

func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	st := s.st()
	if notReady(w, st) {
		return
	}
	q := r.URL.Query()
	seed := st.seed
	if v := q.Get("seed"); v != "" {
		var err error
		if seed, err = strconv.ParseInt(v, 10, 64); err != nil {
			writeErr(w, http.StatusBadRequest, "bad seed %q", v)
			return
		}
	}
	scen := st.scenName
	if v := q.Get("scenario"); v != "" {
		scen = v
	}
	info, err := s.Swap(seed, scen)
	switch {
	case errors.Is(err, ErrSwapInFlight):
		writeErr(w, http.StatusConflict, "%v", err)
	case errors.Is(err, scenario.ErrUnknownPreset):
		// Unknown scenario names are the caller's mistake; build
		// failures are ours.
		writeErr(w, http.StatusBadRequest, "%v", err)
	case err != nil:
		writeErr(w, http.StatusInternalServerError, "%v", err)
	default:
		writeJSON(w, http.StatusOK, map[string]any{"swapped": true, "state": info})
	}
}

// boolFilter parses an optional boolean query value; set reports
// whether the filter was present.
func boolFilter(v string) (val, set bool, err error) {
	if v == "" {
		return false, false, nil
	}
	val, err = strconv.ParseBool(v)
	return val, err == nil, err
}

// pageParams parses limit/offset with a per-endpoint default limit
// (0 = unlimited).
func pageParams(q map[string][]string, defLimit int) (limit, offset int, err error) {
	limit = defLimit
	get := func(key string) (string, bool) {
		vs := q[key]
		if len(vs) == 0 || vs[0] == "" {
			return "", false
		}
		return vs[0], true
	}
	if v, ok := get("limit"); ok {
		if limit, err = strconv.Atoi(v); err != nil || limit < 0 {
			return 0, 0, fmt.Errorf("limit must be a non-negative integer, got %q", v)
		}
	}
	if v, ok := get("offset"); ok {
		if offset, err = strconv.Atoi(v); err != nil || offset < 0 {
			return 0, 0, fmt.Errorf("offset must be a non-negative integer, got %q", v)
		}
	}
	return limit, offset, nil
}

// page applies offset/limit to a filtered slice (limit 0 = unlimited),
// returning an empty — not nil — slice so JSON lists render as [].
func page[T any](s []T, limit, offset int) []T {
	if offset >= len(s) {
		return []T{}
	}
	s = s[offset:]
	if limit > 0 && len(s) > limit {
		s = s[:limit]
	}
	return s
}
