#!/usr/bin/env python3
"""Checks that every `pub` item in crates/*/src has a user outside its
crate: another crate, a `tests/` or `examples/` target, a binary, a
doc-test, or `benchmark/` (its own tests included).

It demotes every `pub` item and every `pub use` re-export in
crates/*/src to `pub(crate)`, then compiles the workspace and
`benchmark/` (all targets of each) and the doc-tests, and gives `pub`
back to exactly what the compiler reports as used from outside (a private
item, method or re-export; a private type in a public signature).
It repeats until nothing more fails. Whatever is still demoted then has
no outside user: the script prints it and exits 1. Every source file is
restored on exit, so the checkout is left as it was found.

    python3 scripts/pub_audit.py        # from anywhere; takes minutes

With the items reported demoted for real, `cargo clippy -D warnings`
lists what has no caller at all.
"""

import glob
import json
import os
import re
import subprocess
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), '..'))
ITEM = re.compile(r'^(\s*)pub (fn|struct|enum|trait|const|type|static|mod|unsafe fn|const fn)\b')
USE = re.compile(r'^(\s*)pub use\b')
NAMED = r'\s*pub (?:fn|struct|enum|trait|const|type|static|mod|unsafe fn|const fn) {}\b'
PRIVACY = {'E0603', 'E0624', 'E0616', 'E0364', 'E0365', 'E0446'}
LINTS = {'private_interfaces', 'private_bounds'}


def parse_use_tree(s, i=0):
    """Leaves (`a::b::C`, `a::B as C`) of the use tree at `s[i]`."""
    prefix = ''
    while True:
        i += len(re.match(r'\s*', s[i:]).group())
        if s[i] == '{':
            leaves, i = [], i + 1
            while True:
                i += len(re.match(r'\s*', s[i:]).group())
                if s[i] == '}':
                    return leaves, i + 1
                sub, i = parse_use_tree(s, i)
                leaves += [prefix + leaf for leaf in sub]
                i += len(re.match(r'\s*,?\s*', s[i:]).group())
        ident = re.match(r'[A-Za-z_][A-Za-z0-9_]*|\*', s[i:]).group()
        i += len(ident)
        step = re.match(r'\s*::\s*', s[i:])
        if step:
            prefix += ident + '::'
            i += len(step.group())
            continue
        alias = re.match(r'\s+as\s+([A-Za-z_][A-Za-z0-9_]*)', s[i:])
        if alias:
            return [f'{prefix}{ident} as {alias.group(1)}'], i + len(alias.group())
        return [prefix + ident], i


def exported_name(leaf):
    return leaf.split(' as ')[-1].split('::')[-1]


def source_name(leaf):
    return leaf.split(' as ')[0].split('::')[-1]


def render_use(vis, leaves):
    if len(leaves) == 1:
        return f'{vis} use {leaves[0]};'
    paths = [leaf.split(' as ')[0].split('::') for leaf in leaves]
    common = []
    for parts in zip(*[p[:-1] for p in paths]):
        if len(set(parts)) > 1:
            break
        common.append(parts[0])
    tails = []
    for leaf in leaves:
        path, _, alias = leaf.partition(' as ')
        tails.append('::'.join(path.split('::')[len(common):]) + (f' as {alias}' if alias else ''))
    head = '::'.join(common) + '::' if common else ''
    return f'{vis} use {head}{{{", ".join(tails)}}};'


class Audit:
    def __init__(self):
        self.orig, self.items, self.uses = {}, {}, {}
        for path in sorted(glob.glob(f'{ROOT}/crates/*/src/**/*.rs', recursive=True)):
            text = open(path).read()
            lines = text.split('\n')
            self.orig[path] = text
            # Items generated by a macro (`$name`) keep their visibility.
            self.items[path] = {n: False for n, line in enumerate(lines)
                                if ITEM.match(line) and '$' not in line}
            self.uses[path] = []
            n = 0
            while n < len(lines):
                m = USE.match(lines[n])
                if not m:
                    n += 1
                    continue
                end = n
                while ';' not in lines[end]:
                    end += 1
                stmt = '\n'.join(lines[n:end + 1])
                body = stmt[stmt.index('pub use') + len('pub use'):stmt.rindex(';')]
                self.uses[path].append({'start': n, 'end': end, 'indent': m.group(1),
                                        'leaves': parse_use_tree(body)[0], 'public': set()})
                n = end + 1

    def write(self):
        """Writes every file with the current visibilities; line
        numbers never move, so compiler spans map back to items."""
        for path, text in self.orig.items():
            lines = text.split('\n')
            for n, public in self.items[path].items():
                if not public:
                    lines[n] = re.sub(r'^(\s*)pub ', r'\1pub(crate) ', lines[n], count=1)
            for use in self.uses[path]:
                pub = [leaf for leaf in use['leaves'] if leaf in use['public']]
                crate = [leaf for leaf in use['leaves'] if leaf not in use['public']]
                stmts = ([render_use('pub', pub)] if pub else []) + \
                    ([render_use('pub(crate)', crate)] if crate else [])
                lines[use['start']] = use['indent'] + ' '.join(stmts)
                for k in range(use['start'] + 1, use['end'] + 1):
                    lines[k] = ''
            open(path, 'w').write('\n'.join(lines))

    def restore(self):
        for path, text in self.orig.items():
            open(path, 'w').write(text)

    def make_public(self, path, line, name):
        """Gives `pub` back to the item or re-export at `path:line`
        (0-based) named `name`; returns whether anything changed."""
        if path not in self.items:
            return False
        for use in self.uses[path]:
            if use['start'] <= line <= use['end']:
                hits = [leaf for leaf in use['leaves'] if exported_name(leaf) == name] or \
                    [leaf for leaf in use['leaves'] if source_name(leaf) == name]
                new = set(hits) - use['public']
                use['public'] |= new
                return bool(new)
        for n in range(line, line + 8):  # a span may start on an attribute
            if n in self.items[path]:
                changed = not self.items[path][n]
                self.items[path][n] = True
                return changed
        return False

    def make_reexport_target_public(self, path, line, name):
        """A `pub use` names a `pub(crate)` item: make the item `pub`."""
        leaf = next((leaf for use in self.uses.get(path, []) if use['start'] <= line <= use['end']
                     for leaf in use['leaves'] if exported_name(leaf) == name), name)
        mods = leaf.split(' as ')[0].split('::')
        src = path[:path.index('/src/') + 5]
        here = path[len(src):-3]
        base = [] if here in ('lib', 'main') or here.endswith('/mod') else here.split('/')
        mods = [m for m in base + mods[:-1] if m != 'crate']
        target = source_name(leaf)
        files = [src + '/'.join(mods) + '.rs', src + '/'.join(mods) + '/mod.rs'] if mods \
            else [src + 'lib.rs']
        for f in files:
            if f not in self.items:
                continue
            lines = self.orig[f].split('\n')
            for n in self.items[f]:
                if re.match(NAMED.format(re.escape(target)), lines[n]):
                    return self.make_public(f, n, target)
            for use in self.uses[f]:
                if any(exported_name(x) == target for x in use['leaves']):
                    return self.make_public(f, use['start'], target)
        return False

    def compile_round(self):
        """One compile of the workspace and `benchmark/`; returns
        (items made public, errors seen)."""
        changed = errors = 0
        for cmd in (['--workspace', '--all-targets'],
                    ['--manifest-path', 'benchmark/Cargo.toml', '--all-targets']):
            out = subprocess.run(['cargo', 'check', '--offline', '--keep-going',
                                  '--message-format=json'] + cmd,
                                 cwd=ROOT, capture_output=True, text=True).stdout
            for line in out.splitlines():
                try:
                    msg = json.loads(line)
                except ValueError:
                    continue
                if msg.get('reason') != 'compiler-message':
                    continue
                diag = msg['message']
                code = (diag.get('code') or {}).get('code')
                errors += diag['level'] == 'error'
                changed += self.apply_diagnostic(diag, code)
        return changed, errors

    def apply_diagnostic(self, diag, code):
        lint = code in LINTS or code == 'E0446'
        if code not in PRIVACY and not lint:
            return 0
        primary = [s for s in diag['spans'] if s['is_primary']]
        if code in ('E0364', 'E0365'):
            return sum(self.make_reexport_target_public(*self.locate(s)) for s in primary)
        spans, stack = [], [diag]
        while stack:
            d = stack.pop()
            spans += d['spans']
            stack += d['children']
        user = crate_of(primary[0]['file_name']) if primary else None
        changed = 0
        for span in spans:
            if '/crates/' not in '/' + span['file_name']:
                continue
            # A privacy error names the definition in another crate; a
            # private-interface lint names the leaked type beside the
            # public item it flags.
            if (span in primary) if lint else crate_of(span['file_name']) == user:
                continue
            changed += self.make_public(*self.locate(span))
        return changed

    @staticmethod
    def locate(span):
        path = os.path.normpath(os.path.join(ROOT, span['file_name']))
        text = span['text'][0]
        name = text['text'][text['highlight_start'] - 1:text['highlight_end'] - 1]
        return path, span['line_start'] - 1, re.split(r'\s+as\s+|::', name.strip())[-1]

    def doc_round(self):
        """Doc-tests compile as outside crates; rustdoc reports them as
        text. Returns (items made public, failed)."""
        run = subprocess.run(['cargo', 'test', '--offline', '--workspace', '--doc', '--no-fail-fast'],
                             cwd=ROOT, capture_output=True, text=True)
        changed, after_note = 0, False
        for line in (run.stdout + run.stderr).splitlines():
            if line.startswith('note:') and 'defined here' in line:
                after_note = True
                continue
            m = re.match(r'\s*(-->|:::) (\S*crates/[^:\s]+\.rs):(\d+):(\d+)', line)
            if m and (m.group(1) == ':::' or after_note):
                path = os.path.normpath(os.path.join(ROOT, m.group(2)))
                src = open(path).read().split('\n')[int(m.group(3)) - 1]
                ident = re.match(r'(?:pub(?:\(crate\))? use )?([A-Za-z_][A-Za-z0-9_:]*)',
                                 src[int(m.group(4)) - 1:])
                name = ident.group(1).split('::')[-1] if ident else ''
                changed += self.make_public(path, int(m.group(3)) - 1, name)
            if m or line.startswith('error'):
                after_note = False
        return changed, run.returncode != 0

    def demoted(self):
        for path, items in self.items.items():
            lines = self.orig[path].split('\n')
            for n, public in sorted(items.items()):
                if not public:
                    yield f'{os.path.relpath(path, ROOT)}:{n + 1}: {lines[n].strip()}'
            for use in self.uses[path]:
                for leaf in use['leaves']:
                    if leaf not in use['public']:
                        yield f'{os.path.relpath(path, ROOT)}:{use["start"] + 1}: pub use {leaf}'


def crate_of(path):
    # A binary and an integration test are crates of their own.
    if '/src/bin/' in path or '/tests/' in path:
        return path
    m = re.search(r'crates/([^/]+)/', path)
    return m.group(1) if m else path


def main():
    audit = Audit()
    try:
        while True:
            audit.write()
            changed, errors = audit.compile_round()
            print(f'compile: {changed} made public, {errors} errors', flush=True)
            if changed:
                continue
            if errors:
                sys.exit('compile errors that are not about visibility; fix those first')
            changed, failed = audit.doc_round()
            print(f'doc-tests: {changed} made public', flush=True)
            if not changed:
                if failed:
                    sys.exit('doc-tests fail for a reason other than visibility')
                break
        unused = list(audit.demoted())
    finally:
        audit.restore()
    for line in unused:
        print(line)
    print(f'{len(unused)} pub items or re-exports without an outside user')
    sys.exit(1 if unused else 0)


if __name__ == '__main__':
    main()
