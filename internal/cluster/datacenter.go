package cluster

import (
	"fmt"

	"repro/internal/geo"
)

// DataCenter is one edge site: a set of servers at a location, mapped to a
// carbon zone and to its nearest latency-trace city (§6.1.1 integration
// rules).
type DataCenter struct {
	ID       string
	Name     string
	Location geo.Point
	// ZoneID is the carbon zone supplying the site's electricity.
	ZoneID string
	// City is the nearest latency-dataset city, used for pairwise
	// latency lookups.
	City string

	servers []*Server
	byID    map[string]*Server
}

// NewDataCenter creates an empty data center.
func NewDataCenter(id, name string, loc geo.Point, zoneID, city string) *DataCenter {
	return &DataCenter{
		ID: id, Name: name, Location: loc, ZoneID: zoneID, City: city,
		byID: make(map[string]*Server),
	}
}

// AddServer registers a server with the data center. Server IDs must be
// unique within the DC and the server's DC field must match.
func (dc *DataCenter) AddServer(s *Server) error {
	if s.DC != dc.ID {
		return fmt.Errorf("cluster: server %s belongs to DC %s, not %s", s.ID, s.DC, dc.ID)
	}
	if _, dup := dc.byID[s.ID]; dup {
		return fmt.Errorf("cluster: duplicate server %s in DC %s", s.ID, dc.ID)
	}
	dc.byID[s.ID] = s
	dc.servers = append(dc.servers, s)
	return nil
}

// Servers returns the DC's servers in registration order (do not modify).
func (dc *DataCenter) Servers() []*Server { return dc.servers }

// Cluster is the set of edge data centers managed by one CarbonEdge
// instance — the "mesoscale edge data centers" of Figure 6.
type Cluster struct {
	dcs  []*DataCenter
	byID map[string]*DataCenter
}

// NewCluster builds a cluster from data centers. IDs must be unique.
func NewCluster(dcs []*DataCenter) (*Cluster, error) {
	c := &Cluster{byID: make(map[string]*DataCenter, len(dcs))}
	for _, dc := range dcs {
		if _, dup := c.byID[dc.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate data center %s", dc.ID)
		}
		c.byID[dc.ID] = dc
		c.dcs = append(c.dcs, dc)
	}
	return c, nil
}

// DataCenters returns the cluster's DCs in registration order.
func (c *Cluster) DataCenters() []*DataCenter { return c.dcs }

// FindServer locates a server by ID anywhere in the cluster.
func (c *Cluster) FindServer(id string) (*Server, *DataCenter, error) {
	for _, dc := range c.dcs {
		if s := dc.byID[id]; s != nil {
			return s, dc, nil
		}
	}
	return nil, nil, fmt.Errorf("cluster: no server %q", id)
}
