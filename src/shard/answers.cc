#include "shard/answers.hh"

#include <fstream>
#include <ostream>

#include "common/strutil.hh"
#include "common/logging.hh"
#include "isa/assembler.hh"
#include "runtime/validate.hh"

namespace snap
{
namespace shard
{

bool
loadRequestFile(const std::string &path, SemanticNetwork &net,
                RequestFile &out, std::string &err)
{
    std::ifstream is(path);
    if (!is) {
        err = "cannot open request file '" + path + "'";
        return false;
    }
    std::size_t slash = path.find_last_of('/');
    std::string base = slash == std::string::npos ? std::string(".")
                                                  : path.substr(0, slash);
    RequestFile file;
    std::string line;
    int lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        std::string body = trim(line);
        if (body.empty() || body[0] == '#')
            continue;
        std::vector<std::string> tok = tokenize(body);
        RequestSpec spec;
        if (tok.size() == 2 && tok[0] == "query") {
            spec.progPath = tok[1];
        } else if (tok.size() == 3 && tok[0] == "session") {
            spec.sessionId = tok[1];
            spec.progPath = tok[2];
        } else {
            err = formatString("%s:%d: expected 'query <prog>' or "
                               "'session <id> <prog>', got '%s'",
                               path.c_str(), lineno, body.c_str());
            return false;
        }
        if (spec.progPath[0] != '/')
            spec.progPath = base + "/" + spec.progPath;
        file.specs.push_back(std::move(spec));
    }
    if (file.specs.empty()) {
        err = "request file '" + path + "' holds no requests";
        return false;
    }

    for (const RequestSpec &s : file.specs) {
        if (file.progs.count(s.progPath))
            continue;
        Program prog;
        if (!assembleFile(s.progPath, net, prog, err))
            return false;
        for (const auto &v : validateProgram(prog))
            snap_warn("%s: %s", s.progPath.c_str(), v.message.c_str());
        file.progs.emplace(s.progPath, std::move(prog));
    }
    out = std::move(file);
    err.clear();
    return true;
}

void
writeAnswer(std::ostream &os, const SemanticNetwork &net,
            std::size_t index, const std::string &sessionId,
            serve::RequestStatus status, const ResultSet &results)
{
    os << "request " << index;
    if (!sessionId.empty())
        os << " session " << sessionId;
    os << " " << serve::requestStatusName(status) << "\n";
    if (status != serve::RequestStatus::Ok)
        return;
    std::size_t ci = 0;
    for (const CollectResult &res : results) {
        os << "  collect " << ci++ << " " << opcodeName(res.op)
           << "\n";
        for (const CollectedNode &n : res.nodes) {
            os << "    node " << net.nodeName(n.node) << " "
               << formatString("%.9g", static_cast<double>(n.value))
               << " "
               << (n.origin == invalidNode
                       ? std::string("-")
                       : net.nodeName(n.origin))
               << "\n";
        }
        for (const CollectedLink &l : res.links) {
            os << "    link " << net.nodeName(l.src) << " "
               << net.relations().name(l.rel) << " "
               << net.nodeName(l.dst) << " "
               << formatString("%.9g", static_cast<double>(l.weight))
               << "\n";
        }
    }
}

} // namespace shard
} // namespace snap
