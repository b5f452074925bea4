// End-to-end tests over assembled machines: the paper's §4.2 csquery
// transcripts, §2.3 connection dance, §5 dial/announce/listen, and the
// conventional /net name space.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "src/base/strings.h"
#include "src/dial/dial.h"
#include "src/ndb/ndb.h"
#include "src/ninep/ramfs.h"
#include "src/ns/proc.h"
#include "src/sim/datakit.h"
#include "src/sim/ether_segment.h"
#include "src/sim/wire.h"
#include "src/world/boot.h"
#include "src/world/node.h"

namespace plan9 {
namespace {

// The database from §4.1, lightly adapted: helix and musca are CPU servers
// on both the Ethernet and Datakit; p9auth is the auth server named by the
// network's auth= attribute.
constexpr char kNdb[] = R"(ipnet=mh-astro-net ip=135.104.0.0
	auth=p9auth
	auth=musca
ipnet=unix-room ip=135.104.9.0 ipmask=255.255.255.0
sys=helix
	dom=helix.research.bell-labs.com
	ip=135.104.9.31 ether=080069022201
	dk=nj/astro/helix
	proto=il
sys=musca
	dom=musca.research.bell-labs.com
	ip=135.104.9.6 ether=080069022202
	dk=nj/astro/musca
sys=p9auth
	ip=135.104.9.34
	dk=nj/astro/p9auth
il=9fs port=17008
il=rexauth port=17021
il=echo port=56789
tcp=echo port=7
tcp=discard port=9
tcp=9fs port=564
udp=dns port=53
)";

class WorldTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_shared<Ndb>();
    ASSERT_TRUE(db_->Load(kNdb).ok());
    db_->BuildIndex("sys");
    db_->BuildIndex("dom");

    helix_ = std::make_unique<Node>("helix");
    musca_ = std::make_unique<Node>("musca");
    auto mac = [](uint8_t last) { return MacAddr{8, 0, 0x69, 2, 0x22, last}; };
    helix_->AddEther(&ether_, mac(1), Ipv4Addr::FromOctets(135, 104, 9, 31),
                     Ipv4Addr{0xffffff00});
    musca_->AddEther(&ether_, mac(2), Ipv4Addr::FromOctets(135, 104, 9, 6),
                     Ipv4Addr{0xffffff00});
    helix_->AddDatakit(&dk_, "nj/astro/helix");
    musca_->AddDatakit(&dk_, "nj/astro/musca");
    ASSERT_TRUE(BootNetwork(helix_.get(), db_, kNdb).ok());
    ASSERT_TRUE(BootNetwork(musca_.get(), db_, kNdb).ok());
  }

  EtherSegment ether_{LinkParams::Ether10()};
  DatakitSwitch dk_;
  std::shared_ptr<Ndb> db_;
  std::unique_ptr<Node> helix_, musca_;
};

TEST_F(WorldTest, NetDirectoryHasConventionalShape) {
  auto proc = helix_->NewProc();
  auto entries = proc->ReadDir("/net");
  ASSERT_TRUE(entries.ok());
  std::set<std::string> names;
  for (auto& d : *entries) {
    names.insert(d.name);
  }
  for (const char* want : {"cs", "dns", "tcp", "udp", "il", "ether0", "dk"}) {
    EXPECT_TRUE(names.count(want)) << "missing /net/" << want;
  }
}

// One line per directory entry: everything a listing and a Stat both say.
std::string DescribeEntry(const std::string& path, const Dir& d) {
  return StrFormat("%s: %s qid %08x.%u mode %o type %u uid %s gid %s len %llu\n",
                   path.c_str(), d.name.c_str(), d.qid.path, d.qid.vers, d.mode,
                   d.type, d.uid.c_str(), d.gid.c_str(),
                   static_cast<unsigned long long>(d.length));
}

// Reads every directory under `dir` and Stats each entry it lists; the two
// must describe the entry identically.  Returns the tree, one entry a line.
std::string ListAndStat(Proc* proc, const std::string& dir) {
  auto entries = proc->ReadDir(dir);
  EXPECT_TRUE(entries.ok()) << dir;
  std::string tree;
  for (const Dir& listed : entries.ok() ? *entries : std::vector<Dir>{}) {
    std::string path = (dir == "/" ? "" : dir) + "/" + listed.name;
    auto stat = proc->Stat(path);
    EXPECT_TRUE(stat.ok()) << path;
    if (stat.ok()) {
      EXPECT_EQ(DescribeEntry(path, *stat), DescribeEntry(path, listed));
    }
    tree += DescribeEntry(path, listed);
    if (listed.qid.IsDir()) {
      tree += ListAndStat(proc, path);
    }
  }
  return tree;
}

// The /net tree of the node below, as its listings describe it.  /net/cs
// and /net/dns are the query files (device type 'x'), everything else the
// protocol devices ('I').
constexpr char kNetTree[] =
    "/net/stats: stats qid 00000002.0 mode 444 type 73 uid none gid none len 0\n"
    "/net/trace: trace qid 00000003.0 mode 444 type 73 uid none gid none len 0\n"
    "/net/log: log qid 00000004.0 mode 444 type 73 uid none gid none len 0\n"
    "/net/ctl: ctl qid 00000005.0 mode 666 type 73 uid none gid none len 0\n"
    "/net/chaos: chaos qid 00000006.0 mode 666 type 73 uid none gid none len 0\n"
    "/net/tcp: tcp qid 80100000.0 mode 20000000555 type 73 uid none gid none len 0\n"
    "/net/tcp/clone: clone qid 00100001.0 mode 666 type 73 uid none gid none len 0\n"
    "/net/udp: udp qid 80200000.0 mode 20000000555 type 73 uid none gid none len 0\n"
    "/net/udp/clone: clone qid 00200001.0 mode 666 type 73 uid none gid none len 0\n"
    "/net/udp/0: 0 qid 80200100.0 mode 20000000555 type 73 uid glenda gid glenda len 0\n"
    "/net/udp/0/ctl: ctl qid 00200102.0 mode 666 type 73 uid glenda gid glenda len 0\n"
    "/net/udp/0/data: data qid 00200103.0 mode 666 type 73 uid glenda gid glenda len 0\n"
    "/net/udp/0/listen: listen qid 00200104.0 mode 666 type 73 uid glenda gid glenda len 0\n"
    "/net/udp/0/local: local qid 00200105.0 mode 666 type 73 uid glenda gid glenda len 0\n"
    "/net/udp/0/remote: remote qid 00200106.0 mode 666 type 73 uid glenda gid glenda len 0\n"
    "/net/udp/0/status: status qid 00200107.0 mode 666 type 73 uid glenda gid glenda len 0\n"
    "/net/il: il qid 80300000.0 mode 20000000555 type 73 uid none gid none len 0\n"
    "/net/il/clone: clone qid 00300001.0 mode 666 type 73 uid none gid none len 0\n"
    "/net/il/0: 0 qid 80300100.0 mode 20000000555 type 73 uid glenda gid glenda len 0\n"
    "/net/il/0/ctl: ctl qid 00300102.0 mode 666 type 73 uid glenda gid glenda len 0\n"
    "/net/il/0/data: data qid 00300103.0 mode 666 type 73 uid glenda gid glenda len 0\n"
    "/net/il/0/listen: listen qid 00300104.0 mode 666 type 73 uid glenda gid glenda len 0\n"
    "/net/il/0/local: local qid 00300105.0 mode 666 type 73 uid glenda gid glenda len 0\n"
    "/net/il/0/remote: remote qid 00300106.0 mode 666 type 73 uid glenda gid glenda len 0\n"
    "/net/il/0/status: status qid 00300107.0 mode 666 type 73 uid glenda gid glenda len 0\n"
    "/net/il/0/stats: stats qid 00300108.0 mode 666 type 73 uid glenda gid glenda len 0\n"
    "/net/ether0: ether0 qid 80400000.0 mode 20000000555 type 73 uid none gid none len 0\n"
    "/net/ether0/clone: clone qid 00400001.0 mode 666 type 73 uid none gid none len 0\n"
    "/net/dk: dk qid 80500000.0 mode 20000000555 type 73 uid none gid none len 0\n"
    "/net/dk/clone: clone qid 00500001.0 mode 666 type 73 uid none gid none len 0\n"
    "/net/cyclone: cyclone qid 80600000.0 mode 20000000555 type 73 uid none gid none len 0\n"
    "/net/cyclone/clone: clone qid 00600001.0 mode 666 type 73 uid none gid none len 0\n"
    "/net/dns: dns qid 00000d2f.0 mode 666 type 120 uid none gid none len 0\n"
    "/net/cs: cs qid 000000c5.0 mode 666 type 120 uid none gid none len 0\n";

TEST_F(WorldTest, DirectoryListingsAgreeWithStat) {
  // All six protocol devices, with one announced and one connected
  // conversation, plus /net/cs and /net/dns in the union.
  Wire fiber(LinkParams::Cyclone());
  helix_->AddCyclone(&fiber, Wire::kA);
  auto proc = helix_->NewProc();
  std::string adir, cdir;
  auto announced = Announce(proc.get(), "il!*!17008", &adir);
  ASSERT_TRUE(announced.ok());
  auto connected = Dial(proc.get(), "udp!135.104.9.6!53", &cdir);
  ASSERT_TRUE(connected.ok());
  EXPECT_EQ(ListAndStat(proc.get(), "/net"), kNetTree);
  // The announced fd is an opened clone: it stats as its conversation's ctl.
  auto ctl = proc->Fstat(*announced);
  ASSERT_TRUE(ctl.ok());
  EXPECT_EQ(ctl->qid.path, 0x00300102u);

  // A RamFs tree: nested directories and files.
  RamFs fs;
  ASSERT_TRUE(fs.MkdirAll("lib/ndb").ok());
  ASSERT_TRUE(fs.WriteFile("lib/ndb/local", "sys=helix\n").ok());
  ASSERT_TRUE(fs.WriteFile("motd", "hello").ok());
  Proc ram(std::make_shared<Namespace>(&fs), "glenda");
  EXPECT_EQ(ListAndStat(&ram, "/"),
            "/lib: lib qid 80000002.1 mode 20000000775 type 114 uid sys gid sys len 0\n"
            "/lib/ndb: ndb qid 80000003.1 mode 20000000775 type 114 uid sys gid sys len 0\n"
            "/lib/ndb/local: local qid 00000004.1 mode 664 type 114 uid sys gid sys len 10\n"
            "/motd: motd qid 00000005.1 mode 664 type 114 uid sys gid sys len 5\n");
}

TEST_F(WorldTest, CsQueryMatchesPaperTranscript) {
  // "% ndb/csquery
  //  > net!helix!9fs
  //  /net/il/clone 135.104.9.31!17008
  //  /net/dk/clone nj/astro/helix!9fs"
  auto proc = musca_->NewProc();
  auto fd = proc->Open("/net/cs", kORdWr);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(proc->WriteString(*fd, "net!helix!9fs").ok());
  ASSERT_TRUE(proc->Seek(*fd, 0, kSeekSet).ok());
  std::vector<std::string> lines;
  for (;;) {
    auto line = proc->ReadString(*fd);
    ASSERT_TRUE(line.ok());
    if (line->empty()) {
      break;
    }
    lines.push_back(*line);
  }
  // The paper shows the il and dk candidates, in preference order.  (Our
  // ndb also carries tcp=9fs port=564 — the §2.3 example conversation — so
  // a tcp candidate follows.)
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines[0], "/net/il/clone 135.104.9.31!17008");
  EXPECT_EQ(lines[1], "/net/dk/clone nj/astro/helix!9fs");
}

TEST_F(WorldTest, CsMetaNameAuthWalk) {
  // "> net!$auth!rexauth" returns the auth systems most closely associated
  // with the source host, on every common network.
  auto proc = helix_->NewProc();
  auto fd = proc->Open("/net/cs", kORdWr);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(proc->WriteString(*fd, "net!$auth!rexauth").ok());
  ASSERT_TRUE(proc->Seek(*fd, 0, kSeekSet).ok());
  std::set<std::string> lines;
  for (;;) {
    auto line = proc->ReadString(*fd);
    ASSERT_TRUE(line.ok());
    if (line->empty()) {
      break;
    }
    lines.insert(*line);
  }
  EXPECT_TRUE(lines.count("/net/il/clone 135.104.9.34!17021"));
  EXPECT_TRUE(lines.count("/net/dk/clone nj/astro/p9auth!rexauth"));
  EXPECT_TRUE(lines.count("/net/il/clone 135.104.9.6!17021"));
  EXPECT_TRUE(lines.count("/net/dk/clone nj/astro/musca!rexauth"));
}

TEST_F(WorldTest, CsRejectsUnknownHost) {
  auto proc = helix_->NewProc();
  auto fd = proc->Open("/net/cs", kORdWr);
  ASSERT_TRUE(fd.ok());
  EXPECT_FALSE(proc->WriteString(*fd, "net!nonesuch!9fs").ok());
}

TEST_F(WorldTest, ManualConnectionDance) {
  // §2.3's four steps, by hand, against the TCP device.
  auto server = musca_->NewProc();
  std::string adir;
  auto afd = Announce(server.get(), "tcp!*!7", &adir);
  ASSERT_TRUE(afd.ok());

  std::thread listener([&] {
    std::string ldir;
    auto lcfd = Listen(server.get(), adir, &ldir);
    ASSERT_TRUE(lcfd.ok());
    auto dfd = Accept(server.get(), *lcfd, ldir);
    ASSERT_TRUE(dfd.ok());
    auto msg = server->ReadString(*dfd, 64);
    ASSERT_TRUE(msg.ok());
    ASSERT_TRUE(server->WriteString(*dfd, *msg).ok());
    // Hold the connection open until the client has inspected its status
    // files; EOF tells us it hung up.
    (void)server->ReadString(*dfd, 64);
    (void)server->Close(*dfd);
    (void)server->Close(*lcfd);
  });

  auto client = helix_->NewProc();
  // 1) open the clone file
  auto cfd = client->Open("/net/tcp/clone", kORdWr);
  ASSERT_TRUE(cfd.ok());
  // 2) read the connection number
  auto num = client->ReadString(*cfd, 32);
  ASSERT_TRUE(num.ok());
  // 3) write the address to ctl
  ASSERT_TRUE(client->WriteString(*cfd, "connect 135.104.9.6!7").ok());
  // 4) open data: connection established
  auto dfd = client->Open("/net/tcp/" + *num + "/data", kORdWr);
  ASSERT_TRUE(dfd.ok());

  ASSERT_TRUE(client->WriteString(*dfd, "hello?").ok());
  auto echoed = client->ReadString(*dfd, 64);
  ASSERT_TRUE(echoed.ok());
  EXPECT_EQ(*echoed, "hello?");

  // §2.3 transcript shape: "cat local remote status".
  auto status = client->ReadFile("/net/tcp/" + *num + "/status");
  ASSERT_TRUE(status.ok());
  EXPECT_NE(status->find("Established"), std::string::npos);
  auto local = client->ReadFile("/net/tcp/" + *num + "/local");
  ASSERT_TRUE(local.ok());
  EXPECT_NE(local->find("135.104.9.31"), std::string::npos);
  auto remote = client->ReadFile("/net/tcp/" + *num + "/remote");
  ASSERT_TRUE(remote.ok());
  EXPECT_NE(remote->find("135.104.9.6 7"), std::string::npos);

  (void)client->Close(*dfd);
  (void)client->Close(*cfd);
  listener.join();
}

TEST_F(WorldTest, DialViaCsPrefersIl) {
  // dial("net!musca!echo") must try IL first ("IL is our protocol of
  // choice") and succeed.
  auto server = musca_->NewProc();
  std::string adir;
  auto afd = Announce(server.get(), "il!*!56789", &adir);
  ASSERT_TRUE(afd.ok());
  std::thread listener([&] {
    std::string ldir;
    auto lcfd = Listen(server.get(), adir, &ldir);
    ASSERT_TRUE(lcfd.ok());
    auto dfd = Accept(server.get(), *lcfd, ldir);
    ASSERT_TRUE(dfd.ok());
    auto msg = server->ReadString(*dfd, 64);
    ASSERT_TRUE(msg.ok());
    ASSERT_TRUE(server->WriteString(*dfd, "echo: " + *msg).ok());
    (void)server->Close(*dfd);
    (void)server->Close(*lcfd);
  });

  auto client = helix_->NewProc();
  std::string dir;
  auto fd = Dial(client.get(), "net!musca!echo", &dir);
  ASSERT_TRUE(fd.ok());
  EXPECT_TRUE(HasPrefix(dir, "/net/il/")) << dir;
  ASSERT_TRUE(client->WriteString(*fd, "ping").ok());
  auto reply = client->ReadString(*fd, 64);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, "echo: ping");
  (void)client->Close(*fd);
  listener.join();
}

TEST_F(WorldTest, DialOverDatakitWithRejectReason) {
  auto server = musca_->NewProc();
  std::string adir;
  auto afd = Announce(server.get(), "dk!*!rx", &adir);
  ASSERT_TRUE(afd.ok());
  std::thread listener([&] {
    std::string ldir;
    auto lcfd = Listen(server.get(), adir, &ldir);
    ASSERT_TRUE(lcfd.ok());
    // "Some networks such as Datakit accept a reason for a rejection."
    ASSERT_TRUE(Reject(server.get(), *lcfd, ldir, "notoday").ok());
  });
  auto client = helix_->NewProc();
  auto fd = Dial(client.get(), "dk!nj/astro/musca!rx");
  ASSERT_FALSE(fd.ok());
  EXPECT_EQ(fd.error().message(), "notoday");
  listener.join();

  // And an accepted call works end to end.
  std::thread listener2([&] {
    std::string ldir;
    auto lcfd = Listen(server.get(), adir, &ldir);
    ASSERT_TRUE(lcfd.ok());
    auto dfd = Accept(server.get(), *lcfd, ldir);
    ASSERT_TRUE(dfd.ok());
    auto msg = server->ReadString(*dfd, 64);
    ASSERT_TRUE(msg.ok());
    ASSERT_TRUE(server->WriteString(*dfd, *msg).ok());
    (void)server->Close(*dfd);
    (void)server->Close(*lcfd);
  });
  auto fd2 = Dial(client.get(), "dk!nj/astro/musca!rx");
  ASSERT_TRUE(fd2.ok());
  ASSERT_TRUE(client->WriteString(*fd2, "over datakit").ok());
  auto reply = client->ReadString(*fd2, 64);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, "over datakit");
  (void)client->Close(*fd2);
  listener2.join();
}

TEST_F(WorldTest, DnsFileResolvesFromNdb) {
  auto proc = helix_->NewProc();
  auto fd = proc->Open("/net/dns", kORdWr);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(proc->WriteString(*fd, "musca.research.bell-labs.com ip").ok());
  ASSERT_TRUE(proc->Seek(*fd, 0, kSeekSet).ok());
  auto line = proc->ReadString(*fd);
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(*line, "musca.research.bell-labs.com ip 135.104.9.6");
}

TEST_F(WorldTest, EtherDeviceFigure1) {
  // Figure 1: /net/ether0 = clone + numbered connection dirs with
  // ctl/data/stats/type.
  auto proc = helix_->NewProc();
  auto cfd = proc->Open("/net/ether0/clone", kORdWr);
  ASSERT_TRUE(cfd.ok());
  auto num = proc->ReadString(*cfd, 16);
  ASSERT_TRUE(num.ok());
  ASSERT_TRUE(proc->WriteString(*cfd, "connect 2048").ok());

  auto entries = proc->ReadDir("/net/ether0/" + *num);
  ASSERT_TRUE(entries.ok());
  std::set<std::string> names;
  for (auto& d : *entries) {
    names.insert(d.name);
  }
  EXPECT_EQ(names,
            (std::set<std::string>{"ctl", "data", "stats", "status", "type"}));

  // "Subsequent reads of the file type yield the string 2048."
  auto type = proc->ReadFile("/net/ether0/" + *num + "/type");
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(TrimSpace(*type), "2048");

  auto stats = proc->ReadFile("/net/ether0/" + *num + "/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("addr: 080069022201"), std::string::npos);
  (void)proc->Close(*cfd);
}

TEST_F(WorldTest, EtherSnoopingSeesForeignTraffic) {
  // A promiscuous type -1 connection observes IL traffic between the two
  // nodes' IP stacks — the paper's "diagnostic interfaces for snooping".
  auto snoop = musca_->NewProc();
  auto cfd = snoop->Open("/net/ether0/clone", kORdWr);
  ASSERT_TRUE(cfd.ok());
  auto num = snoop->ReadString(*cfd, 16);
  ASSERT_TRUE(num.ok());
  ASSERT_TRUE(snoop->WriteString(*cfd, "promiscuous").ok());
  ASSERT_TRUE(snoop->WriteString(*cfd, "connect -1").ok());
  auto dfd = snoop->Open("/net/ether0/" + *num + "/data", kORead);
  ASSERT_TRUE(dfd.ok());

  // Generate traffic helix -> musca.
  auto client = helix_->NewProc();
  auto fd = Dial(client.get(), "il!135.104.9.6!99");  // refused, but its sync crossed the cable
  (void)fd;

  Bytes frame(2048);
  auto n = snoop->Read(*dfd, frame.data(), frame.size());
  ASSERT_TRUE(n.ok());
  EXPECT_GE(*n, kEtherHeaderSize);  // saw a whole frame, header included
  (void)snoop->Close(*dfd);
  (void)snoop->Close(*cfd);
}

TEST_F(WorldTest, PipesCarryDelimitedMessages) {
  auto proc = helix_->NewProc();
  auto pipe = proc->Pipe();
  ASSERT_TRUE(pipe.ok());
  auto [a, b] = *pipe;
  ASSERT_TRUE(proc->WriteString(a, "through the pipe").ok());
  auto got = proc->ReadString(b, 64);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "through the pipe");
  // EOF after close.
  ASSERT_TRUE(proc->Close(a).ok());
  auto eof = proc->ReadString(b, 64);
  ASSERT_TRUE(eof.ok());
  EXPECT_TRUE(eof->empty());
}

TEST_F(WorldTest, EiaStyleSysnameFile) {
  // /dev files are served by the root fs; the §2.2 idea that "programs like
  // stty are replaced by echo and shell redirection" — control by writing
  // ASCII to files.
  auto proc = helix_->NewProc();
  auto name = proc->ReadFile("/dev/sysname");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(*name, "helix");
}

}  // namespace
}  // namespace plan9
